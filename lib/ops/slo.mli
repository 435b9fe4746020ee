(** Recovery-SLO accounting for one completed drill.

    Turns a drill's probe-tick record into the four recovery metrics
    an operator would put in a post-mortem, and grades them against
    the book's declared budgets — the quantitative form of the paper's
    claims that anycast "naturally lends itself to fault tolerance"
    (§2.2) and that vN-Bone damage is "easily detected and repaired"
    (§3.3). Asserted in the test-suite for every catalog drill and
    swept by experiments E34/E35. *)

type metrics = {
  detection_s : float option;
      (** seconds from fault onset to detection ([None]: never) *)
  reconverge_s : float option;
      (** seconds from fault onset until the probe delivery fraction
          is back at — and stays at — its last pre-fault level
          ([None]: never within the drill) *)
  blackhole_s : float;
      (** integral of the lost-probe fraction over the drill's 1-second
          ticks — probe-seconds of blackholed traffic *)
  stale_frac : float;  (** mean fraction of probes accepted off-target *)
  hijacked_peak : float;
      (** worst single-tick fraction of probes terminating inside the
          rogue domain (0 outside hijack drills) *)
}

type verdict = { metrics : metrics; pass : bool; failures : string list }

val measure : Drill.run -> metrics
(** Compute the metrics from the run's rows; call after
    {!Drill.execute}. *)

val evaluate : Drill.run -> verdict
(** {!measure}, then compare each metric against the book's
    {!Drillbook.slo} budgets. A metric holds only when it was measured
    and is [<=] its budget, so a NaN budget is a miss. [failures] lists
    every miss in a stable human-readable form. *)

val render : Drillbook.t -> verdict -> string
(** Stable multi-line report ([evolvenet drill] prints it; its exit
    status is the verdict): the verdict's headline, then one line per
    budget whose ok/MISS is the comparison {!evaluate} makes. *)
