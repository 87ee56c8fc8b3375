(** REGPRESS — register-pressure relief (an extension pass; the paper's
    Sec. 6 notes the framework extends to register allocation "by adding
    preference maps for registers"). Estimates each cluster's peak
    register pressure from the current preferred assignment and
    preferred times, then deflates the preferences of low-confidence
    instructions for clusters whose peak pressure exceeds the register
    file size. *)

val decl : Pass.decl

val pass : ?registers_per_cluster:int -> ?confidence_threshold:float -> unit -> Pass.t
