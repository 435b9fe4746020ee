(** Undirected weighted graphs over integer nodes.

    The router-level internet, each domain's internal topology, the
    AS-level domain graph and every vN-Bone (§3.3.1) are all instances
    of this structure. *)

type t

val create : n:int -> t
(** A graph with nodes [0 .. n-1] and no edges. *)

val n : t -> int
(** Number of nodes. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] adds the undirected edge [u -- v] with weight
    [w]. Replaces the weight if the edge already exists.
    @raise Invalid_argument on self-loops, out-of-range nodes, or
    non-positive weights. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge if present; no-op otherwise. *)

val has_edge : t -> int -> int -> bool
val edge_weight : t -> int -> int -> float option
val neighbors : t -> int -> (int * float) list
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
val edge_count : t -> int

val edges : t -> (int * int * float) list
(** Every undirected edge once, with [u < v]. *)

val copy : t -> t

val components : t -> int list list
(** Connected components, each as a list of nodes. *)

val component_ids : t -> int array
(** [ids.(v)] is the component index of node [v]. *)

val is_connected : t -> bool
(** True when there is one component (vacuously true for [n = 0]). *)
