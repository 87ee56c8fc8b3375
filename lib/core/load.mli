(** LOAD — load balancing (paper Sec. 4): divide every weight on a
    cluster by that cluster's total load (the summed cluster-marginal
    preference of all instructions), deflating overloaded clusters and
    inflating idle ones. *)

val decl : Pass.decl

val pass : unit -> Pass.t
