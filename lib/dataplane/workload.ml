module Internet = Topology.Internet
module Rng = Topology.Rng

type model = Uniform | Gravity of { zipf_s : float }
type flow = { src : int; dst : int; packets : int; bytes_per_packet : int }

type t = {
  inet : Internet.t;
  weights : float array; (* per domain, normalized *)
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
  if total <= 0.0 then invalid_arg "Workload.create: no endhosts anywhere";
  {
    inet;
    weights = Array.map (fun w -> w /. total) raw;
    rng = Rng.create seed;
    packets_per_flow;
    payload_mix;
  }

let pick_domain t =
  let u = Rng.float t.rng 1.0 in
  let n = Array.length t.weights in
  let rec go d acc =
    if d >= n - 1 then n - 1
    else
      let acc = acc +. t.weights.(d) in
      if u < acc then d else go (d + 1) acc
  in
  go 0 0.0

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
