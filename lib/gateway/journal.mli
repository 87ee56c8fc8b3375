(** The gateway's durable job journal: exactly-once across gateway
    restarts, built on {!Cs_util.Wal}.

    Every job is journaled ([admit] record: journal key + full request)
    before it is dispatched to a shard, and journaled again ([done]
    record: journal key + reply) when it is answered. The journal key
    is the canonical scenario hash joined with the client's idempotency
    key (or the request id when no idempotency key was supplied).

    After a crash, {!open_dir} with [recover:true] replays the log:
    [admit] records without a matching [done] are the jobs the dead
    gateway accepted but never answered — the caller re-dispatches
    them ({!pending}); completed keys keep their replies in the dedup
    map ({!completed}), so a client retrying with the same idempotency
    key gets the journaled verdict instead of a re-execution.
    Dispatch itself stays at-least-once (a shard may have executed a
    job whose [done] record never hit the disk), which is safe because
    scheduling is a pure, deterministic computation — the replayed
    execution produces the identical verdict.

    The log self-compacts: whenever nothing is in flight and the log
    has grown past a threshold, one atomic {!Cs_util.Wal.rewrite}
    replaces it with the done records of the most recent [max_done]
    completed keys, bounding both disk use and the dedup horizon. A
    crash at any point of the compaction leaves the old complete log or
    the new one, never a log without the horizon.

    Thread-safe; forwarder domains share one journal. *)

type t

val open_dir :
  ?max_done:int -> ?compact_bytes:int -> dir:string -> recover:bool ->
  unit -> t
(** Open (creating [dir] if needed). With [recover:false] any existing
    journal is discarded — a fresh start; with [recover:true] the log
    is scanned (torn tails truncated by the WAL layer) and its state
    loaded. [max_done] (default 4096) bounds the dedup map;
    [compact_bytes] (default 4 MiB) triggers compaction. *)

val pending : t -> (string * Cs_svc.Proto.request) list
(** Jobs admitted but not answered, oldest first — after a recovering
    open, the replay set. *)

val lag : t -> int
(** In-flight journaled jobs ([admit] without [done]) — the admission
    watermark input. *)

val completed : t -> string -> Cs_svc.Proto.reply option
(** Dedup lookup: the journaled reply for a finished key, within the
    dedup horizon. *)

val truncated_bytes : t -> int
(** Bytes the recovery scan cut off a torn tail (0 on a clean open). *)

val admit : t -> key:string -> Cs_svc.Proto.request -> unit
(** Durably record the job before dispatch (append + group-commit
    fsync). Idempotent per key: re-admitting an in-flight or finished
    key is a no-op. *)

val mark_done : t -> key:string -> Cs_svc.Proto.reply -> unit
(** Durably record the answer; moves the key into the dedup map and
    may trigger compaction. The first journaled verdict of a key
    stands: marking an already finished key done again is a no-op. *)

val close : t -> unit
