(** EMPHCP — emphasize critical-path distance (paper Sec. 4): reinforce
    each instruction's weight at its level (its start time on a machine
    with infinite resources, i.e. its ASAP cycle) to help temporal
    convergence. *)

val decl : Pass.decl

val pass : ?factor:float -> unit -> Pass.t
