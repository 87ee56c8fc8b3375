(** Canonical scenario identity: one stable fingerprint for "schedule
    this DDG on this machine under these faults with this pass spec".

    Two requests with the same canonical hash are the same scheduling
    problem and must produce the same schedule, so the hash is usable as

    - the gateway's consistent-hash routing and result-cache key (same
      scenario ⇒ same shard ⇒ cache hit, no rescheduling), and
    - the {!Cs_check} repro-file fingerprint (a repro whose content no
      longer matches its recorded fingerprint is corrupt).

    The hash is FNV-1a (64-bit) over {!canonical_form}: a textual
    concatenation of the machine name, the canonical fault-plan string,
    the scheduler/pass spec, and the region in the {!Cs_ddg.Textual}
    format, which numbers registers by first appearance — so
    structurally equal scenarios hash identically, whatever numbering
    their registers had. *)

val fnv1a : ?h:int64 -> string -> int64
(** 64-bit FNV-1a. [h] continues a previous hash (defaults to the FNV
    offset basis), so multi-part keys can be folded without
    concatenating strings. *)

val canonical_form :
  ?faults:Cs_resil.Fault.plan ->
  ?spec:string ->
  machine:Cs_machine.Machine.t ->
  Cs_ddg.Region.t ->
  string
(** The exact text that is hashed; stable across process runs and OCaml
    versions. [faults] defaults to the empty plan, [spec] (free-form
    scheduler + pass-sequence + seed description) to [""]. *)

val canonical_hash :
  ?faults:Cs_resil.Fault.plan ->
  ?spec:string ->
  machine:Cs_machine.Machine.t ->
  Cs_ddg.Region.t ->
  int64
(** [fnv1a (canonical_form ...)]. *)

val hex : int64 -> string
(** 16 lowercase hex digits, e.g. ["cbf29ce484222325"]. *)
