(** Convergence telemetry (the paper's Sec. 4-5 story, made measurable).

    Each convergent pass nudges the preference matrix; convergence shows
    up as the preferred assignment stabilizing (falling churn), the
    scheduler growing more certain (rising confidence), and the weight
    rows sharpening (falling entropy). The churn is the pass's
    {!Trace.step}; {!emit} adds the matrix's confidence and entropy to
    it, so the driver records a Fig. 4 / Fig. 7-style convergence curve
    per pass per round through {!Cs_obs}. *)

val mean_confidence : Weights.t -> float
(** Mean over instructions of {!Weights.confidence} (top-two cluster
    ratio), clamped at 1000 so fully converged rows stay finite and
    exportable: a row with no runner-up reports
    {!Weights.confidence_sentinel} (1e9), and the cap keeps one
    unanimous row from drowning the mean. *)

val mean_row_entropy : Weights.t -> float
(** Mean over instructions of the Shannon entropy (bits) of the
    cluster-marginal distribution; [log2 clusters] when uniform, 0 when
    fully converged. *)

val emit : Trace.step -> Weights.t -> unit
(** [emit step w] records a [cat = "converge"] counter event named
    ["converge:PASS"] carrying the step's [round], [churn] (its
    [changed]) and [churn_fraction] ({!Trace.changed_fraction}), and
    [w]'s [mean_confidence] and [mean_entropy]; a no-op when the
    {!Cs_obs.Obs} sink is disabled. *)
