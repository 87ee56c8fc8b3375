(** FEASIBLE (the paper mentions this as a sibling of INITTIME): squash
    the weights of every cluster that has no functional unit able to
    execute an instruction's opcode. On the homogeneous machines of the
    paper this is a no-op, but it makes the framework correct on
    heterogeneous cluster mixes. *)

val decl : Pass.decl

val pass : unit -> Pass.t
