(** The differential-testing oracle: runs a scenario's scheduler and
    cross-checks the result against every independent judge in the
    repository —

    - {!Cs_sched.Validator}: resource and dependence legality;
    - {!Cs_sim.Interp}: observational equivalence to program-order
      execution (the executable semantic oracle);
    - analytic bounds: makespan at or above the critical-path lower
      bound and enough issue slots for every instruction;
    - a metamorphic invariant: on symmetric (crossbar) machines with no
      preplacement, relabeling clusters preserves legality, semantics,
      and makespan.

    A scheduler crash (a typed {!Cs_resil.Error}, [Failure],
    [Invalid_argument]) is itself a reported violation, not a fuzzer
    error.

    Scenarios with a non-empty fault plan run on the degraded machine
    through {!Cs_sim.Pipeline.schedule_resilient}: a classified refusal
    is a legitimate outcome (not a violation), but any schedule the
    fallback chain does return must satisfy every judge, and symmetric-
    machine permutation is off (damage breaks the symmetry).

    A {!Scenario.Passes} sequence sabotaged with {!Cs_core.Chaos} passes
    that all use modes 0, 1, 3 or 4 is also rebuilt without them (mode 3
    only on machines with more than one cluster): the driver rolls back
    each such pass, so both must schedule every instruction on the same
    cluster in the same cycle (the ["chaos"] judge). *)

type violation = { check : string; detail : string }
(** [check] is the failing judge: ["schedule"], ["validator"],
    ["interp"], ["cpl-bound"], ["resource-bound"], ["permute"], or
    ["chaos"]. *)

val build : Scenario.t -> (Cs_sched.Schedule.t option, violation) result
(** Run the scenario's scheduler {e without} the pipeline's internal
    validation, converting crashes into ["schedule"] violations.
    [Ok None] is a graceful typed refusal, possible only on degraded
    scenarios. *)

val run :
  ?transform:(Cs_sched.Schedule.t -> Cs_sched.Schedule.t) ->
  Scenario.t -> (unit, violation) result
(** [build], then every schedule check (first failure wins, ordered as
    listed above), then the CHAOS rollback check. [transform] is applied
    to the built schedule before it is checked — the bug-injection hook
    used by tests to prove the oracle and shrinker catch corrupted
    schedules. *)
