(** End-to-end scheduling pipelines: region in, validated schedule out.
    One entry point per scheduler compared in the paper's evaluation.

    Every schedule returned by this module has passed
    {!Cs_sched.Validator}, so experiment cycle counts are legality-
    checked, not trusted. *)

type scheduler =
  | Convergent (** the paper's contribution, with the machine's default sequence *)
  | Rawcc (** the Rawcc-style three-phase baseline (Table 2 "Base") *)
  | Uas (** unified assign-and-schedule (Fig. 8) *)
  | Pcc (** partial component clustering (Fig. 8) *)
  | Bug (** the Bulldog assigner (extra baseline) *)
  | Anneal (** Leupers-style simulated annealing (extra baseline) *)

val all_schedulers : scheduler list
val scheduler_name : scheduler -> string
val scheduler_of_name : string -> scheduler option

val schedule :
  ?seed:int -> scheduler:scheduler -> machine:Cs_machine.Machine.t ->
  Cs_ddg.Region.t -> Cs_sched.Schedule.t
(** Runs the chosen pipeline and validates the result. For [Convergent],
    the pass sequence is the machine's default (Table 1) and — mirroring
    Sec. 5 — the list-scheduling priority is the convergent temporal
    preference on clustered VLIWs but the native ALAP priority on Raw
    meshes (Rawcc "computes temporal assignments independently"). *)

val convergent :
  ?seed:int -> ?passes:Cs_core.Pass.t list -> machine:Cs_machine.Machine.t ->
  Cs_ddg.Region.t -> Cs_sched.Schedule.t * Cs_core.Trace.t
(** Convergent pipeline that also returns the convergence trace
    (Figs. 7/9) and accepts a custom pass sequence (ablations). *)

val schedule_raw :
  ?seed:int -> ?passes:Cs_core.Pass.t list -> scheduler:scheduler ->
  machine:Cs_machine.Machine.t -> Cs_ddg.Region.t -> Cs_sched.Schedule.t
(** Like {!schedule}, but the result is returned {e without} passing
    through {!Cs_sched.Validator} (and without emitting simulator
    counters). This is the entry point for the differential-fuzzing
    oracle in [lib/check], which must observe illegal schedules rather
    than die on the pipeline's internal [check_exn]; everything else
    should use {!schedule}. [passes] is only meaningful for
    [Convergent]. *)

val default_passes : machine:Cs_machine.Machine.t -> Cs_core.Pass.t list

val schedule_resilient :
  ?seed:int ->
  ?passes:Cs_core.Pass.t list ->
  ?deadline:float ->
  ?pass_budget_s:float ->
  ?scheduler:scheduler ->
  machine:Cs_machine.Machine.t ->
  Cs_ddg.Region.t ->
  (Cs_sched.Schedule.t * Cs_resil.Outcome.t, Cs_resil.Error.t) result
(** Graceful-degradation entry point: climbs a fallback chain until a
    rung produces a schedule that passes {!Cs_sched.Validator}:

    + the requested [scheduler] (default [Convergent]; [passes] applies
      to a convergent request);
    + the machine's default convergent sequence (skipped when that is
      exactly what rung 1 ran);
    + a single-cluster critical-path list schedule, trying each
      surviving cluster in order — no transfers, so it validates on any
      machine with one cluster able to execute every opcode.

    The returned {!Cs_resil.Outcome.t} names the winning rung, the
    classified error of every rung that failed before it, and any pass
    quarantines recorded while producing the winning schedule. All
    rungs failing returns the last error. Rung failures and fallbacks
    are emitted as [cat = "resil"] events when the {!Cs_obs.Obs} sink
    is enabled. Never raises on scheduler failures that
    {!Cs_resil.Error.protect} classifies.

    [deadline] (absolute {!Cs_obs.Clock} time) and [pass_budget_s] are
    threaded into the convergent driver (see {!Cs_core.Driver.run}):
    the driver stops between passes on expiry and the best-so-far
    matrix is list-scheduled, so a convergent rung answers even under
    an expired deadline (the outcome records [timed_out]). Once the
    deadline has expired, no {e further} rung is started after a
    failure — the chain refuses with a typed
    [Cs_resil.Error.Deadline_exceeded] instead. The first rung always
    runs, so a request with an already-expired deadline still gets the
    anytime best-effort answer rather than an unconditional refusal. *)
