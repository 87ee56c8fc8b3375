(** Consistent-hash ring over shard names.

    Each shard owns 64 virtual nodes, points on a 64-bit ring (FNV-1a
    of ["name/i"]); a key is routed to the first point clockwise from
    the key's hash. With that many points per shard the load split is even
    to within a few percent, and removing one of [N] shards moves only
    the keys that shard owned — about [K/N] of [K] keys — while every
    other key keeps its shard. That bound is what makes failover cheap:
    a shard death does not reshuffle the fleet's cache affinity.

    The ring is immutable; [remove] returns a new ring, so concurrent
    routers can keep reading an old snapshot. *)

type t

val make : string list -> t
(** Duplicate shard names are ignored. *)

val shards : t -> string list
(** Distinct shard names, in insertion order. *)

val remove : t -> string -> t

val route : t -> int64 -> string option
(** Owner of a key: first ring point clockwise (unsigned order) from the
    key. [None] on an empty ring. *)

val candidates : t -> int64 -> string list
(** Every distinct shard in clockwise ring order starting at the key's
    owner — the failover order: if the owner is down, the next candidate
    inherits exactly this key range. *)
