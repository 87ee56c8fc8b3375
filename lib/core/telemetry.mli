(** Convergence telemetry (the paper's Sec. 4-5 story, made measurable).

    Each convergent pass nudges the preference matrix; convergence shows
    up as the preferred assignment stabilizing (falling churn), the
    scheduler growing more certain (rising confidence), and the weight
    rows sharpening (falling entropy). {!measure} gathers all three
    for a {!Weights.t} so the driver can emit a
    Fig. 4 / Fig. 7-style convergence curve per pass per round through
    {!Cs_obs}. *)

type metrics = {
  churn : int;  (** instructions whose preferred cluster changed *)
  total : int;  (** instructions measured *)
  mean_confidence : float;
  (** mean over instructions of {!Weights.confidence} (top-two cluster
      ratio), clamped at 1000 so fully converged rows stay finite and
      exportable: a row with no runner-up reports
      {!Weights.confidence_sentinel} (1e9), and the cap keeps one
      unanimous row from drowning the mean *)
  mean_entropy : float;
  (** mean over instructions of the Shannon entropy (bits) of the
      cluster-marginal distribution; [log2 clusters] when uniform, 0
      when fully converged *)
}

val churn_fraction : metrics -> float

val measure : churn:int -> Weights.t -> metrics
(** [measure ~churn w] adds [w]'s confidence and entropy to [churn], the
    number of rows whose preferred cluster the pass changed (the driver
    counts it over the rows the pass wrote, as {!Trace.step.changed}). *)

val mean_confidence : Weights.t -> float
val mean_row_entropy : Weights.t -> float

val emit : ?round:int -> pass:string -> metrics -> unit
(** Record the metrics as a [cat = "converge"] counter event named
    ["converge:PASS"]; a no-op when the {!Cs_obs.Obs} sink is
    disabled. *)
