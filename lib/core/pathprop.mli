(** PATHPROP — path propagation (paper Sec. 4): pick instructions whose
    spatial assignment is confident and diffuse their preference
    matrices along downward and upward dependence paths, blending 50/50
    into each less-confident instruction encountered, until an
    instruction at least as confident stops the walk. *)

val decl : Pass.decl

val pass : ?confidence_threshold:float -> ?blend_keep:float -> unit -> Pass.t
