(** PLACE (paper Sec. 4): multiply the weights of every preplaced
    instruction on its home cluster by a large factor (100 in the
    paper) — preplacement is a correctness constraint, so the boost must
    dominate every other heuristic. Instructions anchored through homed
    live-in registers receive a smaller, soft boost. *)

val decl : Pass.decl

val pass : ?factor:float -> ?live_in_factor:float -> unit -> Pass.t
