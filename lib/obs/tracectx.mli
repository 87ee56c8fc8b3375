(** Cross-process trace context.

    A context names one causal chain through the fleet: a [trace_id]
    shared by every span the originating job touches (client submit,
    gateway dispatch, shard queue + run), a [span_id] unique to the
    current hop, and the parent hop's span id. On the wire
    ({!Cs_svc.Proto} requests) only [trace_id] and [parent_span]
    travel — each process mints its own [span_id]s — as the
    ["trace_id"]/["parent_span"] JSON fields documented in DESIGN.md
    ("Fleet telemetry").

    Ids are 16 lowercase hex digits, generated from a splitmix64
    stream seeded per-process (pid + clock), so concurrent processes
    do not collide in practice. *)

type t = {
  trace_id : string;  (** shared by the whole causal chain *)
  span_id : string;  (** this hop *)
  parent_span : string option;  (** the hop that caused this one *)
}

val root : unit -> t
(** Start a new trace: fresh [trace_id] and [span_id], no parent. *)

val child : t -> t
(** A new hop under [t]: same [trace_id], fresh [span_id],
    [parent_span = Some t.span_id]. *)

val make : trace_id:string -> ?parent_span:string -> unit -> t
(** Rebuild a context from wire headers, minting a fresh [span_id]
    for the receiving hop. *)

val args : t -> (string * Obs.value) list
(** The context as span args ([trace_id], [span_id], and
    [parent_span] when present) for {!Obs.span} and friends — the
    merged Chrome trace groups spans by these. *)
