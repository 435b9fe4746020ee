(** Small-sample statistics for multi-seed experiment runs — the 95%
    confidence intervals behind E13's replication of the §3.2 figures
    across independent internets. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1) *)
  ci95 : float;  (** half-width of the 95% Student-t confidence interval *)
}

val summarize : float list -> summary
(** [nan] fields on the empty list; [ci95 = 0] for singletons. *)

val to_string : summary -> string
(** ["12.34 +/- 0.56"]. *)

val t_critical_95 : int -> float
(** Two-sided 95% Student-t critical value for the given degrees of
    freedom (exact for df <= 30, 1.96 beyond). *)
