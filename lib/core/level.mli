(** LEVEL — level distribution (paper Sec. 4): distribute the
    instructions of each depth level across clusters to expose
    parallelism, while keeping graph-wise close instructions together to
    bound communication.

    Instructions whose assignment is already confident seed per-cluster
    bins; the rest are dealt round-robin, each bin receiving the
    candidate farthest from it (preferring candidates at distance
    greater than [granularity] from every existing bin, so nearby
    instructions are not torn apart).

    [stride] groups that many consecutive levels per application; the
    paper uses 4 on Raw — "the minimum granularity of parallelism that
    Raw can profitably exploit". Like every typed
    constructor, raises [Invalid_argument] on a value outside its
    parameter's domain in {!decl}, e.g. [stride < 1]. *)

val decl : Pass.decl

val pass :
  ?stride:int -> ?granularity:int -> ?confidence_threshold:float ->
  ?boost:float -> unit -> Pass.t
