(** PATH — critical-path strengthening (paper Sec. 4): keep the
    instructions of a critical path together on one cluster by tripling
    their weights there. If path instructions are biased toward a
    cluster (preplacement, or an existing confident preference), the
    path moves to that cluster; with conflicting biases the path is
    broken into segments, each anchored near its own home cluster; with
    no bias at all the least-loaded cluster is chosen. *)

val decl : Pass.decl

val pass : ?boost:float -> ?confidence_threshold:float -> unit -> Pass.t
