(** FIRST (paper Sec. 4): on the Chorus clustered VLIW all live data is
    available in the first cluster at the start of every scheduling
    unit, so schedules that use the first cluster avoid copies. Scale
    every instruction's weights on cluster 0 by 1.2. *)

val decl : Pass.decl

val pass : ?factor:float -> unit -> Pass.t
