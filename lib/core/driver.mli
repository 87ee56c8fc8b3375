(** The convergent-scheduler driver (paper Sec. 2): initializes the
    preference matrix uniformly, applies the pass sequence, normalizes
    after every pass, records the convergence trace, and extracts the
    final space-time preferences.

    The output is split exactly as in Sec. 5: a cluster assignment for
    every instruction, and a temporal preference used as the priority of
    an independent list scheduler. *)

type result = {
  assignment : int array; (** instruction -> cluster *)
  preferred_slot : int array; (** instruction -> preferred time slot *)
  trace : Trace.t;
      (** one step per pass application, in execution order; the
          rolled-back ones carry [quarantine = Some reason] (a
          misbehaving pass degrades quality, never correctness) *)
  weights : Weights.t; (** final matrix, for inspection *)
  context : Context.t;
  timed_out : bool;
      (** the [deadline] expired before the sequence completed; the
          result extracts the best-so-far matrix (anytime property) *)
}

val run :
  ?seed:int -> ?nt_cap:int ->
  ?observe:(string -> Weights.t -> unit) ->
  ?deadline:float -> ?pass_budget_s:float ->
  machine:Cs_machine.Machine.t -> Cs_ddg.Region.t -> Pass.t list -> result
(** [observe] is called after each pass with the (normalized) matrix —
    used by the Fig. 4-style example to print map snapshots.
    Preplaced instructions are always assigned to their home cluster,
    whatever the final weights say (correctness).

    Every pass runs inside a quarantine gate: the matrix records an
    undo log of the rows the pass changes ({!Weights.begin_pass}), is
    checked after the pass (and its renormalization), and is rolled
    back on violation; the violation is the step's [quarantine] and,
    when the {!Cs_obs.Obs} sink is enabled, is emitted as a
    [cat = "resil"] instant + counter. The rest of the sequence
    continues on the restored matrix.

    A sequence that starts with the stock INITTIME ({!Inittime.pass})
    builds its matrix already masked with {!Weights.create_windowed}
    rather than filling it uniformly and masking it: the matrix, the
    trace step, the telemetry and the [observe] call are the same, and
    the step keeps its timing, deadline check and budget (an overrun
    leaves the uniform matrix).

    Time robustness (the driver as an anytime algorithm — W is a valid
    preference matrix after every pass):

    - [deadline] is an absolute {!Cs_obs.Clock} time. It is checked
      between passes; on expiry the remaining passes are skipped, the
      best-so-far matrix is extracted, and [timed_out] is set. The
      driver never hangs waiting for a slow sequence.
    - [pass_budget_s] is a per-pass wall-clock budget. A pass cannot be
      preempted, so enforcement is post-hoc: a pass that overruns is
      rolled back and quarantined with a [Pass_timeout] reason, feeding
      the same quarantine/telemetry machinery as a corrupting pass. *)

val run_iterative :
  ?seed:int -> ?nt_cap:int ->
  ?observe:(string -> Weights.t -> unit) ->
  ?deadline:float -> ?pass_budget_s:float ->
  ?max_rounds:int -> ?epsilon:float ->
  machine:Cs_machine.Machine.t -> Cs_ddg.Region.t -> Pass.t list ->
  result * int
(** Applies the whole sequence repeatedly on the same matrix until the
    fraction of instructions changing their preferred cluster over a
    full round drops below [epsilon] (default 0.02) or [max_rounds]
    (default 5) is reached — the paper's feature 5: "the framework
    allows a heuristic to be applied multiple times, either
    independently or as part of an iterative process". [observe] fires
    once per pass per round, as in {!run}. Returns the result and the
    number of rounds executed; the trace concatenates all rounds.

    When the {!Cs_obs.Obs} sink is enabled, both entry points derive
    per-pass events from each {!Trace.step}, in this order: a
    [cat = "pass"] span of its [elapsed_s] with the 1-based round in
    [args], the quarantine events if it was rolled back, and its
    convergence counter ({!Telemetry.emit}). [run_iterative]
    additionally wraps each round in a [cat = "round"] span and emits a
    round-level churn counter. *)

val assignment_of_weights : ?cap_factor:float -> Context.t -> Weights.t -> int array
(** Extracts the assignment from the final matrix: preplaced
    instructions are forced home; the rest claim clusters in descending
    confidence order, falling back to their next-preferred cluster once
    a cluster holds more than [cap_factor * max (n / usable clusters)
    CPL] instructions (default factor 1.1) — the preference-map analogue
    of Rawcc's merging step, preventing a popular cluster from
    serializing the region while still letting serial graphs pack
    tightly. Only clusters whose surviving functional units can execute
    an instruction's opcode are candidates ([Machine.can_execute] is a
    hard constraint), which is what makes degraded machines with
    heterogeneous surviving FUs schedulable; raises
    [Cs_resil.Error.Error (Infeasible _)] if some opcode is executable
    nowhere. *)

