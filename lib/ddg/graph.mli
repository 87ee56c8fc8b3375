(** The data dependence graph (DDG) of one scheduling region.

    Nodes are instructions (dense ids); edges are true (def-use) data
    dependences plus memory-ordering dependences added by the builder.
    The graph is immutable once built and is guaranteed acyclic. *)

type t

val of_instrs : Instr.t array -> extra_edges:(int * int) list -> t
(** Builds the DDG: def-use edges are derived from SSA register
    operands; [extra_edges] adds explicit ordering constraints (memory
    dependences). Raises [Invalid_argument] on duplicate register
    definitions, use of an undefined register that is not a live-in, or
    a cycle. Uses of registers never defined inside the region are
    treated as live-ins. *)

val n : t -> int
val instr : t -> int -> Instr.t
val instrs : t -> Instr.t array
val succs : t -> int -> int list
val preds : t -> int -> int list
val neighbors : t -> int -> int list
(** [preds @ succs]. The graph is acyclic, so no node is both a
    predecessor and a successor and the list has no duplicates. *)

val n_edges : t -> int
val roots : t -> int list
(** Nodes with no predecessors, ascending. *)

val leaves : t -> int list
(** Nodes with no successors, ascending. *)

val topo_order : t -> int array
(** A topological order of all node ids. *)

val defining_instr : t -> Reg.t -> int option
(** The instruction that defines a register, if defined in-region. *)

val live_in_regs : t -> Reg.Set.t
(** Registers used but not defined in the region. *)

val preplaced : t -> (int * int) list
(** [(instr id, home cluster)] for every preplaced instruction. *)

val pp : Format.formatter -> t -> unit
