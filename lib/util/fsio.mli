(** Crash-safe file writes.

    Every durable artifact in the repository — JSONL exports, fuzz
    findings and repro files, tuner checkpoints, benchmark reports, and
    every change to the write-ahead log other than an append (its
    creation, the cut of a torn tail, a fresh start and the journal's
    compaction: {!Wal.rewrite}) — goes through {!write_atomic} so a
    process killed mid-write never leaves a truncated file behind: the
    content is written to a sibling temp file, fsynced, and renamed
    over the destination (atomic on POSIX within one filesystem). *)

val write_atomic : path:string -> string -> unit
(** [write_atomic ~path content] atomically replaces [path] with
    [content]. On failure the temp file is removed and the previous
    [path] (if any) is untouched. Before writing, orphaned
    [path.tmp.<pid>] files left by writers that crashed between create
    and rename are swept; after the rename the containing directory is
    fsynced so the new name itself is durable. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string to [fd], looping over short writes. No
    fsync. *)

val read_opt : string -> string option
(** Whole-file read, [None] if [path] does not exist. *)
