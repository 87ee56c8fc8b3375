(** Imperative construction of scheduling regions.

    The workload generators express kernels as straight-line SSA code:

    {[
      let b = Builder.create ~name:"dot" () in
      let x = Builder.load b ~addr_bank:0 in
      let y = Builder.load b ~addr_bank:1 in
      let p = Builder.op2 b Opcode.Fmul x y in
      ignore (Builder.store b ~addr_bank:0 p);
      let region = Builder.finish b
    ]} *)

type t

val create : name:string -> unit -> t

val live_in : ?home:int -> t -> Reg.t
(** A region live-in value, optionally homed on a cluster. *)

val emit :
  t -> ?preplace:int -> ?tag:string -> Opcode.t -> ?dst:bool -> Reg.t list -> Reg.t option
(** Low-level emission. [dst] defaults to [Opcode.writes_register op];
    returns the destination register if one is allocated. *)

val op0 : t -> ?preplace:int -> ?tag:string -> Opcode.t -> Reg.t
(** Nullary value producer ([Const]). *)

val op1 : t -> ?preplace:int -> ?tag:string -> Opcode.t -> Reg.t -> Reg.t
val op2 : t -> ?preplace:int -> ?tag:string -> Opcode.t -> Reg.t -> Reg.t -> Reg.t
val op3 : t -> ?preplace:int -> ?tag:string -> Opcode.t -> Reg.t -> Reg.t -> Reg.t -> Reg.t

val load : t -> ?preplace:int -> ?tag:string -> Reg.t -> Reg.t
(** [load b addr]. *)

val store : t -> ?preplace:int -> ?tag:string -> addr:Reg.t -> Reg.t -> unit

val mem_fence_edge : t -> int -> int -> unit
(** Explicit ordering edge between two instruction ids (memory
    dependence). *)

val last_id : t -> int
(** Id of the most recently emitted instruction. *)

val mark_live_out : t -> Reg.t -> unit

val finish : t -> Region.t
(** Build and validate the region. *)
