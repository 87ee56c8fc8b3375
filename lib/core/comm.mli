(** COMM — communication minimization (paper Sec. 4): skew each
    instruction's weights toward the clusters where its dependence-graph
    neighbors sit, by multiplying [W(i,c,t)] with the summed weight of
    the neighbors at [(c,t)] (read from the pre-pass matrix, so the
    pass is order-independent). A small [eps] keeps feasible slots
    alive when neighbors carry no weight there.

    The paper's variant additionally considers grand-parents and
    grand-children (at half weight) and reinforces the currently
    preferred slot by a factor of two; both are on by default, matching
    "we usually run it together with COMM".

    By default the pull is the neighbors' {e cluster marginal}, applied
    uniformly across an instruction's feasible slots: dependent
    instructions necessarily execute at different cycles, so coupling on
    identical (c,t) entries (the paper's literal formula) reads zero
    overlap precisely on tight dependence chains. Set [per_slot:true]
    for the literal per-slot product. *)

val decl : Pass.decl

val pass :
  ?eps:float -> ?grand:bool -> ?grand_weight:float -> ?per_slot:bool ->
  ?strengthen_preferred:float -> unit -> Pass.t
