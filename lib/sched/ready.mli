(** The list schedulers' ready queue: a binary min-heap of instruction
    ids, specialised to one fixed order, shared by every list scheduler
    in this repository (the convergent pipeline's and UAS's).

    [i] pops before [j] when [priority.(i) < priority.(j)]; on equal
    priority, when [height.(i) > height.(j)] (the longer remaining chain
    first); on equal height too, when [i < j]. The order is total over
    distinct ids and compares the stored ints directly, so it holds for
    any values, negative and extreme ones included. *)

type t

val create : priority:int array -> height:int array -> t
(** An empty queue over ids [0 .. Array.length priority - 1]. The
    arrays are read, not copied. Raises [Invalid_argument] when their
    lengths differ. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** Raises [Invalid_argument] when the id is out of range, or when the
    queue already holds as many ids as there are (so some id twice). *)

val pop : t -> int
(** Removes and returns the first id in the order above; [-1] when the
    queue is empty. *)

val peek : t -> int
(** Like {!pop}, without removing it. *)
