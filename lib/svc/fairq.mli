(** Per-tenant fair admission queue with two priority lanes.

    The service-tier replacement for a single bounded FIFO: each lane
    (interactive / batch) holds one FIFO per tenant, serviced by
    deficit-weighted round-robin so a backlogged tenant drains in
    proportion to its weight instead of in proportion to how fast it
    floods the socket. Two bounds apply at admission — a global
    capacity (shed, [Overloaded]) and a per-tenant quota that binds
    first ([Quota_exceeded]) so a hot tenant degrades only itself.

    Interactive is serviced ahead of batch, but every [batch_share]-th
    pull gives batch the front of the line: a bandwidth guarantee
    against starvation, not a strict priority inversion.

    Workers block in {!pull}; {!close} ends them once the queue has
    drained, the same shutdown protocol as {!Squeue.pop}. *)

type lane = Interactive | Batch

val lane_name : lane -> string

type admit_result =
  | Admitted
  | Queue_full  (** global capacity reached (or queue closed) — shed *)
  | Over_quota  (** this tenant's quota reached — typed refusal *)

type 'a t

val create :
  ?tenant_quota:int ->
  ?weights:(string * int) list ->
  ?batch_share:int ->
  capacity:int ->
  unit ->
  'a t
(** [tenant_quota <= 0] (the default) means "no per-tenant bound
    tighter than [capacity]". [weights] assigns DRR weights to named
    tenants (default 1). [batch_share = n] guarantees batch one pull
    in [n] (default 4; [0] disables the guarantee). Raises
    [Invalid_argument] when [capacity <= 0]. *)

val admit : 'a t -> tenant:string -> lane:lane -> 'a -> admit_result

val pull : 'a t -> 'a option
(** Blocks for the next item, chosen by DRR honouring lane priority
    and the batch share. [None] once the queue is closed {e and} empty,
    so a worker loop drains every admitted item before exiting. *)

val length : 'a t -> int
val peak : 'a t -> int
(** High-watermark total depth since creation. *)

val close : 'a t -> unit
(** Refuse further admissions and wake every blocked {!pull}.
    Idempotent. *)
