(** Measurement helpers for anycast redirection quality.

    "Stretch" compares the path an anycast packet actually takes with
    the best path to {e any} group member reachable by ordinary unicast
    forwarding — both measured on the policy-routed data plane, since
    the paper's notion of "closest" (§3.2) is "the network's measure of
    routing distance".

    Every query prices its walks with memoised forwarding trees
    ({!Simcore.Forward.toward}): one toward the anycast address and one
    toward each member, built by the call and dropped when it returns,
    so a walk from every endhost costs each router one forwarding
    decision per destination. Each answer is what
    {!Simcore.Forward.forward} and {!Simcore.Forward.path_metric} give
    for a fresh packet. Nothing is cached across calls, so a query after
    a converge, an IGP recompute or a membership change sees the new
    state. *)

val best_member : Service.t -> endhost:int -> (int * float) option
(** The member with the cheapest unicast path from the endhost, with
    that metric. *)

val actual : Service.t -> endhost:int -> (int * float) option
(** The member the anycast service actually delivers to, with the
    metric of the path taken. *)

val stretch : Service.t -> endhost:int -> float option
(** [actual / best]; 1.0 when both are zero (the access router is a
    member); [None] when anycast delivery fails. *)

val stretches : Service.t -> float list
(** {!stretch} of every endhost with successful delivery, in endhost
    order, sharing one set of forwarding trees. *)

val mean_stretch : Service.t -> float
(** [mean (stretches service)]: mean stretch over all endhosts with
    successful delivery; [nan] when none succeed. *)

val delivery_rate : Service.t -> float
(** Fraction of endhosts whose anycast probes get delivered. *)

val termination_share : Service.t -> domain:int -> float
(** Fraction of successfully delivered probes that terminate at a
    member inside the given domain (the default-provider load of
    Option 2, experiment E2). *)

(** {1 Small statistics helpers} *)

val mean : float list -> float
(** [nan] on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0, 1\]] (nearest-rank); [nan] on
    the empty list. *)
