(** Convergence traces: one record per pass application — the data
    behind the paper's Figs. 7 and 9. The driver fills a {!step} after
    every pass and derives everything else it reports about that pass
    from it: the [pass] span, the [converge] counter
    ({!Telemetry.emit}), the quarantine events, and the quarantines a
    result reports. *)

type step = {
  pass_name : string;
  pass_kind : Pass.kind;
  round : int;  (** 1-based *)
  changed : int; (** instructions whose preferred cluster changed *)
  total : int;
  elapsed_s : float;
  (** wall-clock seconds of the pass and its quarantine gate, from the
      clock pair the per-pass budget reads; a measurement, so never
      part of comparing two traces *)
  quarantine : string option;
  (** [Some reason] when the application was rolled back: the pass
      raised a classifiable exception, overran its budget, or left the
      matrix violating invariants (non-finite or negative weights, rows
      not summing to 1, a preplaced row stripped of its home-cluster
      mass). A rolled-back step reports no churn. *)
}

type t = step list
(** In application order, rounds concatenated. *)

val changed_fraction : step -> float

val space_steps : t -> step list
(** Steps of space-editing passes only (the figures "exclude passes that
    only modify temporal preferences"). *)

val pp : Format.formatter -> t -> unit
