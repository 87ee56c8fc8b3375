(** CLUSTER — dependence-chain clustering (the paper's stated future
    work: "we expect that integrating a clustering pass to convergent
    scheduling will address this problem", Sec. 5). Groups instructions
    DSC-style by merging every instruction with the predecessor on its
    critical (ASAP-determining) edge, then pulls each group toward the
    group's consensus cluster, so chains that should never be split stop
    competing with each other during convergence. Groups never span
    conflicting preplacement homes. *)

val decl : Pass.decl

val pass : ?boost:float -> unit -> Pass.t

val groups : Context.t -> int list list
(** The chain groups (exposed for tests); singleton groups omitted. *)
