(** A growable one-slot-per-cycle reservation table: the scheduler books
    functional units and network links cycle by cycle. *)

type t

val create : unit -> t
val is_free : t -> int -> bool
val book : t -> int -> unit
(** Raises [Cs_resil.Error.Error (Resource_conflict _)] when the cycle
    is already booked and [Error (Invalid_input _)] when it is
    negative, so recovery code can classify instead of dying. *)

val first_free_from : t -> int -> int
(** Earliest free cycle at or after the given cycle. *)

val booked_cycles : t -> int list
(** Ascending; for tests and utilization reporting. *)

