module Internet = Topology.Internet
module Rng = Topology.Rng

type model = Uniform | Gravity of { zipf_s : float }
type flow = { src : int; dst : int; packets : int; bytes_per_packet : int }

type t = {
  inet : Internet.t;
  cum : float array;
      (* per domain, the running sum of the normalized weights up to it,
         added left to right *)
  rng : Rng.t;
  packets_per_flow : int;
  payload_mix : int array;
}

let create ?(packets_per_flow = 4) ?(payload_mix = [| 64; 512; 1400 |])
    (inet : Internet.t) model ~seed =
  if packets_per_flow <= 0 then
    invalid_arg "Workload.create: packets_per_flow must be positive";
  if Array.length payload_mix = 0 then
    invalid_arg "Workload.create: payload_mix must be non-empty";
  if Array.length inet.Internet.endhosts < 2 then
    invalid_arg "Workload.create: needs at least two endhosts";
  let n = Internet.num_domains inet in
  let raw =
    match model with
    | Uniform ->
        (* weight by endhost count so uniform-over-hosts holds *)
        Array.init n (fun d ->
            float_of_int
              (Array.length (Internet.domain inet d).Internet.endhost_ids))
    | Gravity { zipf_s } ->
        Array.init n (fun d ->
            if Array.length (Internet.domain inet d).Internet.endhost_ids = 0
            then 0.0
            else 1.0 /. Float.pow (float_of_int (d + 1)) zipf_s)
  in
  let total = Array.fold_left ( +. ) 0.0 raw in
  if total <= 0.0 then invalid_arg "Workload.create: every endhost has zero weight";
  let cum = Array.make n 0.0 and acc = ref 0.0 in
  Array.iteri
    (fun d w ->
      acc := !acc +. (w /. total);
      cum.(d) <- !acc)
    raw;
  {
    inet;
    cum;
    rng = Rng.create seed;
    packets_per_flow;
    payload_mix;
  }

(* The first domain d < n - 1 with u < cum.(d), or n - 1 if none: a
   binary search, since the running sums never decrease. *)
let pick_domain t =
  let u = Rng.float t.rng 1.0 in
  let rec go lo hi = (* the answer lies in [lo, hi] *)
    if lo = hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if u < t.cum.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.cum - 1)

let pick_endhost t =
  let rec try_domain () =
    let d = pick_domain t in
    let hosts = (Internet.domain t.inet d).Internet.endhost_ids in
    if Array.length hosts = 0 then try_domain ()
    else hosts.(Rng.int t.rng (Array.length hosts))
  in
  try_domain ()

let next t =
  let src = pick_endhost t in
  let rec pick_dst () =
    let d = pick_endhost t in
    if d = src then pick_dst () else d
  in
  {
    src;
    dst = pick_dst ();
    packets = t.packets_per_flow;
    bytes_per_packet = Rng.pick_array t.rng t.payload_mix;
  }

let validate f =
  if f.packets < 0 then
    invalid_arg "Workload.validate: packets must be non-negative";
  (* Wire's body limit *)
  if f.bytes_per_packet < 0 || f.bytes_per_packet > 0xFFFF then
    invalid_arg "Workload.validate: bytes_per_packet must be in [0, 65535]"

let batch t ~count = List.init count (fun _ -> next t)
let total_packets flows = List.fold_left (fun n f -> n + f.packets) 0 flows
