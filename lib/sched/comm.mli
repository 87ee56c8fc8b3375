(** Communication synthesis during scheduling.

    On the clustered VLIW, moving a value books the source cluster's
    transfer unit(s) for one cycle and arrives [crossbar latency] cycles
    later. On Raw, the value is routed over the static network:
    a dimension-ordered route whose directed links are reserved
    wormhole-style (link k of the route is busy at cycle [depart + k]),
    arriving after 3 + (hops - 1) cycles.

    Deliveries are memoized per (producer, destination cluster): a value
    already sent to a cluster is reused, matching what a real
    compiler-routed network does. *)

(** Int-keyed hash tables, hashed by the key itself. *)
module Itbl : Hashtbl.S with type key = int

type t

val create : Cs_machine.Machine.t -> t

val deliver : t -> producer:int -> src:int -> dst:int -> ready:int -> int
(** [deliver t ~producer ~src ~dst ~ready] books the earliest legal
    transfer departing at or after [ready] and returns the arrival
    cycle. Returns [ready] when [src = dst]. *)

val bookings : t -> Schedule.comm list
(** Every transfer booked so far. *)

val link_conflicts : Cs_machine.Machine.t -> Schedule.comm list -> string list
(** Re-checks a finished schedule's transfers for oversubscribed
    resources (validator helper): transfer-unit overuse on a crossbar,
    link collisions on a mesh. *)
