type t = { order : int array; window : int; mutable refreshed : int }

let create ~order ~window =
  if window <= 0 then invalid_arg "Rollout.create: window must be positive";
  { order = Array.copy order; window; refreshed = Array.length order }

let restart t = t.refreshed <- 0
let finished t = t.refreshed >= Array.length t.order

let step t pump =
  let n = Array.length t.order in
  if t.refreshed < n then begin
    let upto = min n (t.refreshed + ((n + t.window - 1) / t.window)) in
    Pump.refresh pump
      ~routers:(Array.to_list (Array.sub t.order t.refreshed (upto - t.refreshed)));
    t.refreshed <- upto
  end

let progress t =
  let n = Array.length t.order in
  if n = 0 then 1.0 else float_of_int t.refreshed /. float_of_int n
