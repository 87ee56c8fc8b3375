(** Priority vectors for list scheduling: lower value = scheduled
    earlier among ready instructions ({!Ready} breaks ties). *)

val of_slots : int array -> int array
(** Use the convergent scheduler's preferred time slots directly (the
    paper: "the preferred time is used as the instruction priority for
    list scheduling"). *)

val alap : Cs_ddg.Analysis.t -> int array
(** Classic critical-path priority: latest feasible start time; critical
    instructions first. *)

val asap : Cs_ddg.Analysis.t -> int array
