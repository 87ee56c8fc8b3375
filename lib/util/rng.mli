(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    every experiment is reproducible from a seed. The generator is
    splitmix64, which is fast, has a 64-bit state, and supports cheap
    splitting for independent sub-streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val state : t -> int64
(** The raw 64-bit state, for checkpointing. *)

val of_state : int64 -> t
(** Rebuild a generator from {!state} output; the stream continues
    exactly where the saved generator left off. *)

val split : t -> t
(** [split t] derives an independent generator; advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bits53 : t -> int
(** The top 53 bits of the next {!bits64}, as a non-negative int.
    [float t bound] is exactly
    [bound *. (float_of_int (bits53 t) /. 9007199254740992.0)]; a caller
    that spells this out draws the same floats without the boxed
    result of a [float] call. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. [lo <= hi]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)
