(** INITTIME (paper Sec. 4): squash to zero every time slot outside an
    instruction's feasible window [\[lp, CPL - ls\]] — before its longest
    predecessor chain or after the latest start that still meets the
    critical-path length. Critical instructions end up with exactly one
    feasible slot. *)

val decl : Pass.decl

val pass : unit -> Pass.t

val windows : Context.t -> int array * int array
(** Each instruction's feasible window as slot indices, clamped to the
    matrix: [(lo, hi)] with [lo.(i) <= hi.(i)]. *)

val apply : Context.t -> Weights.t -> unit
(** The pass's body: {!Weights.mask_time_window} to [windows] on every
    row whose window leaves out a slot. The driver recognises a
    sequence starting with this pass on a fresh matrix and builds the
    result directly with {!Weights.create_windowed}. *)
