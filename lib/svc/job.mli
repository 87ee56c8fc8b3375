(** One admitted service job: a parsed request stamped with its arrival
    time and absolute deadline. Shared by the socket server and the SLO
    benchmark, which runs jobs in-process. *)

type t = {
  request : Proto.request;
  arrival : float;  (** {!Cs_obs.Clock} time of admission *)
  deadline : float option;  (** absolute; [arrival + deadline_ms] *)
}

val admit : ?default_deadline_ms:float -> Proto.request -> t
(** Stamp a request at the current clock. The request's own
    [deadline_ms] wins over [default_deadline_ms]. *)

val run :
  ?retry_policy:Retry.policy ->
  ?extra_passes:Cs_core.Pass.t list ->
  ?pass_budget_s:float ->
  t ->
  Proto.reply
(** Execute the job end to end and always produce a reply:

    - a deadline that expired while the job sat in the queue refuses
      immediately with [Deadline_exceeded] (running it cannot help);
    - unknown benchmark / machine / scheduler / passes refuse with
      [Invalid_input], and so does a request naming the fault-injection
      pass CHAOS (it could stall a worker past any deadline);
    - otherwise {!Cs_sim.Pipeline.schedule_resilient} runs with the
      job's absolute deadline, optionally wrapped in {!Retry.run}
      (transient errors only, and never once the deadline has expired);
    - [extra_passes] are appended to convergent sequences — the serve
      command uses this to inject a CHAOS slow pass for SLO drills,
      the one way CHAOS reaches a service job.

    Never raises on classifiable scheduler failures. *)
