(** The batch service's JSON-lines wire protocol.

    One request per line, one reply per line, matched by [id]. The codec
    reuses {!Cs_obs.Json}; unknown request fields are ignored so clients
    can be newer than servers. *)

type request = {
  id : string;  (** echoed on the reply; opaque to the server *)
  bench : string;  (** workload name, looked up in {!Cs_workloads.Suite} *)
  machine : string;  (** e.g. ["raw16"], ["raw4"], ["vliw4"] *)
  scheduler : string;  (** {!Cs_sim.Pipeline.scheduler_of_name} name *)
  scale : int;  (** workload scale factor, [>= 1] *)
  deadline_ms : float option;
      (** per-job budget, measured from admission; [None] = no deadline *)
  passes : string option;  (** comma-separated pass spec overriding the default *)
  seed : int option;
  idem_key : string option;
      (** client-chosen idempotency key: a gateway running a durable
          journal answers a retry carrying the same key from the
          journal instead of re-executing — the client-visible half of
          the exactly-once contract across gateway restarts *)
  trace_id : string option;
      (** cross-process trace context (see {!Cs_obs.Tracectx}): the
          causal chain's id, stamped by the submitting client or the
          gateway and echoed into every span the job produces *)
  parent_span : string option;
      (** span id of the hop that forwarded this request *)
  tenant : string option;
      (** fair-admission identity: jobs are queued and quota'd per
          tenant, so one hot tenant degrades only itself; [None] maps
          to the ["default"] tenant *)
  job_class : string option;
      (** wire field ["class"]: ["interactive"] or ["batch"] pins the
          priority lane; [None] infers it — a deadline marks the job
          interactive, no deadline means batch *)
}

val request :
  ?id:string -> ?machine:string -> ?scheduler:string -> ?scale:int ->
  ?deadline_ms:float -> ?passes:string -> ?seed:int -> ?idem_key:string ->
  ?trace_id:string -> ?parent_span:string -> ?tenant:string ->
  ?job_class:string -> string -> request
(** [request bench] with defaults mirroring the CLI ([raw16],
    [convergent], scale 1, no deadline, no trace context). *)

val with_trace : ctx:Cs_obs.Tracectx.t -> request -> request
(** Stamp [ctx] onto a request: the wire carries [ctx.trace_id] and
    [ctx.span_id] as the receiving hop's parent. *)

val trace_of_request : request -> Cs_obs.Tracectx.t option
(** Rebuild the receiving hop's context (fresh span id, parented on
    the sender's span); [None] when the request carries no trace. *)

type verdict =
  | Scheduled of {
      cycles : int;
      transfers : int;
      rung : string;  (** fallback rung that produced the schedule *)
      timed_out : bool;  (** anytime early exit extracted best-so-far *)
      quarantined : int;  (** passes rolled back while scheduling *)
    }
  | Refused of { kind : string; message : string }
      (** typed refusal; [kind] is a {!Cs_resil.Error.kind} tag such as
          ["deadline-exceeded"] or ["overloaded"] *)

type reply = {
  reply_id : string;
  elapsed_ms : float;
  verdict : verdict;
  queue_depth : int option;
      (** load gossip: the answering shard's admission-queue depth at
          reply time; the gateway's least-loaded and
          weighted-completion-time policies feed on it *)
  cached : bool;  (** served from the gateway's result cache *)
}

val reply :
  ?queue_depth:int -> ?cached:bool -> id:string -> elapsed_ms:float -> verdict -> reply

val refused : ?elapsed_ms:float -> id:string -> Cs_resil.Error.t -> reply

val machine_of_name : string -> (Cs_machine.Machine.t, string) result
(** [rawN], [vliwN], [vliw]: the one machine-name grammar, read by the
    wire and by the [csched] CLI's machine flags. *)

val request_to_line : request -> string
val request_of_line : string -> (request, string) result
val reply_to_line : reply -> string
val reply_of_line : string -> (reply, string) result

(** JSON-value forms of the same codecs, for embedding requests and
    replies inside larger documents (e.g. the gateway's journal
    records) without double-encoding. *)

val request_to_json : request -> Cs_obs.Json.t
val request_of_json : Cs_obs.Json.t -> (request, string) result
val reply_to_json : reply -> Cs_obs.Json.t
val reply_of_json : Cs_obs.Json.t -> (reply, string) result

(** {2 Control verbs}

    Besides job requests, a service socket answers three control
    lines: [{"op":"ping"}] (liveness probe), [{"op":"stats"}] (live
    counters), and [{"op":"metrics","format":"json"|"prometheus"}]
    (the full metrics registry). All are answered inline — never
    queued — so a health checker's probe cannot be starved by a full
    admission queue. *)

type metrics_format = Metrics_json | Metrics_prometheus

type control = Ping | Stats_query | Metrics_query of metrics_format

type heartbeat = {
  hb_shard : string;
      (** the address the gateway was configured with for this shard —
          the shard's [--advertise] name, not whatever the kernel says
          about the connection *)
  hb_depth : int;  (** admission-queue depth *)
  hb_busy : int;
  hb_workers : int;
  hb_completed : int;
}
(** Push heartbeat: one line per period from shard to gateway on a
    persistent connection, carrying the shard's load vector. One-way —
    the gateway sends no reply — so idle-fleet load signals no longer
    depend on reply-piggybacked gossip or prober round trips. *)

type incoming =
  | Job_request of request
  | Control of { op : control; id : string }
  | Heartbeat of heartbeat

val stats_line : ?id:string -> unit -> string
val metrics_line : ?format:metrics_format -> ?id:string -> unit -> string
val heartbeat_line : heartbeat -> string

type metrics_payload =
  | Snapshot of Cs_obs.Metrics.snapshot
      (** mergeable registry snapshot; fold shard answers with
          {!Cs_obs.Metrics.merge_all} for fleet totals *)
  | Prom_text of string  (** Prometheus text exposition, pre-rendered *)

val metrics_reply_to_line : id:string -> metrics_payload -> string
val metrics_reply_of_line : string -> (string * metrics_payload, string) result
(** [(id, payload)]; errors on anything that is not a metrics reply. *)

val incoming_of_line : string -> (incoming, string) result
(** Classify one wire line: a control line (has an ["op"] member) or a
    job request. *)

type server_stats = {
  queue_depth : int;  (** jobs waiting in the admission queue *)
  workers : int;
  busy : int;  (** workers currently executing a job *)
  admitted : int;
  completed : int;
  shed : int;
  refusals : int;
  extra : (string * float) list;
      (** layer-specific series (e.g. gateway cache counters),
          round-tripped verbatim *)
}

val pong_to_line : id:string -> server_stats -> string
val pong_of_line : string -> (string * server_stats, string) result
(** [(id, stats)]; errors on anything that is not a pong. *)
