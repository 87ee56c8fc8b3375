(** Append-only write-ahead record log in one file: CRC-checksummed
    framing, group-committed fsyncs, and a recovery scan that cuts torn
    tails.

    The log is the file [wal-000000.log] in its directory. Each record
    is framed as [magic | length | crc32(payload) | payload]. The file
    changes in two ways only: an append followed by an [fsync], and an
    atomic replace ({!rewrite}, through {!Fsio.write_atomic}: temp
    file, fsync, rename, directory fsync). So at every instant the file
    holds the old complete log or the new one, plus at most one torn
    tail. {!open_dir} detects the tear by length or checksum and
    rewrites the file with the whole records before it; corruption
    {e before} the tail (a bad record followed by good ones) is cut the
    same way, since a write-ahead log is only trustworthy up to its
    first tear.

    Durability is group-committed: {!append} buffers, {!sync} writes
    the batch and issues one [fsync] for every record appended before
    it — concurrent committers coalesce onto a single in-flight flush
    instead of queueing one fsync each. *)

type t

type recovery = {
  records : string list;  (** every intact payload, append order *)
  truncated_bytes : int;
      (** bytes discarded by tail truncation (0 on a clean log) *)
}

val open_dir : dir:string -> unit -> t * recovery
(** Open (creating [dir] and the file if needed) and run the recovery
    scan. Raises [Failure] naming the file when [dir] holds a later
    segment ([wal-000001.log] onwards) of a rotated log, whose records
    this log would otherwise drop; [Unix.Unix_error] / [Sys_error] when
    the directory is unusable. *)

val append : t -> string -> unit
(** Buffer one record (any bytes, including newlines). Thread-safe.
    Not durable until the next {!sync}. *)

val sync : t -> unit
(** Flush every buffered record and fsync. Returns once all records
    appended before this call are durable; concurrent syncs share
    flushes. *)

val append_sync : t -> string -> unit
(** [append] + [sync] — the one-call durable append. *)

val size_bytes : t -> int
(** Durable bytes in the file (excludes the unsynced buffer). *)

val rewrite : t -> string list -> unit
(** Compaction primitive: wait for the flush in progress, atomically
    replace the file with exactly [records], and reopen it for appends.
    Records buffered but not yet flushed are dropped; every earlier
    append counts as synced once the new file is durable, so the
    caller's [records] must stand for them (e.g. a journal's live
    state). *)

val close : t -> unit
(** Final sync, then close. Further appends raise. *)
