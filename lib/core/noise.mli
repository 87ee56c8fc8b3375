(** NOISE (paper Sec. 4): add a small random perturbation to every
    weight to break symmetry and spread instructions across clusters.

    [amplitude] is relative to the mean weight [1 / (nc * nt)]; the
    default of 1.0 adds up to one mean-weight of noise per entry, which
    reproduces the paper's [rand() / RAND_MAX] on a freshly initialized
    (uniform) matrix. Noise draws come from the context's deterministic
    random stream. *)

val decl : Pass.decl

val pass : ?amplitude:float -> unit -> Pass.t
