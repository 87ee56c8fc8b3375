(** Bounded multi-producer multi-consumer queue: the gateway's
    admission queue. (The server admits through {!Fairq}.)

    Pushes never block: a full (or closed) queue refuses immediately so
    the caller can shed load with a typed [Overloaded] reply instead of
    queueing unboundedly. Pops block until an item arrives or the queue
    is closed and drained, which is exactly the worker-shutdown
    protocol: [close] then join. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed — the caller sheds. *)

val pop : 'a t -> 'a option
(** Blocks for the next item. [None] once the queue is closed {e and}
    empty, so a worker loop drains every admitted item before exiting. *)

val close : 'a t -> unit
(** Refuse further pushes and wake all blocked poppers. Idempotent. *)

val length : 'a t -> int

