module Transport = Cs_svc.Transport
module Proto = Cs_svc.Proto
module Squeue = Cs_svc.Squeue
module Meters = Cs_svc.Meters
module Conn = Cs_svc.Conn
module Metrics = Cs_obs.Metrics

type config = {
  listen_addr : Transport.addr;
  shards : Transport.addr list;
  policy : Policy.t;
  cache_capacity : int;
  forwarders : int;
  queue_capacity : int;
  probe_period_s : float;
  fail_threshold : int;
  shard_timeout_s : float;
  journal_dir : string option;
  recover : bool;
}

(* Fixed tuning. Adaptive admission sheds once the queue passes this
   fraction of its capacity (scaled by the live share of the fleet), or
   once this many journaled jobs are in flight; a re-admitted shard is
   warmed with this many of the hottest cache entries. *)
let shed_watermark = 0.85
let journal_lag_limit = 512
let warm_entries = 16

let config ?(policy = Policy.Hash) ?(cache_capacity = 256) ?(forwarders = 4)
    ?(queue_capacity = 64) ?(probe_period_s = 1.0) ?(fail_threshold = 3)
    ?(shard_timeout_s = 30.0) ?journal_dir ?(recover = false) ~shards listen =
  if shards = [] then invalid_arg "Gateway.config: at least one shard required";
  (* Checked here, before anything is bound: [create] would otherwise
     raise only after the listen address exists. *)
  let positive what v =
    if v <= 0 then invalid_arg (Printf.sprintf "Gateway.config: %s must be positive" what)
  in
  positive "forwarders" forwarders;
  positive "fail_threshold" fail_threshold;
  positive "cache_capacity" cache_capacity;
  positive "queue_capacity" queue_capacity;
  (* A NaN or zero probe period spins the prober without sleeping, and a
     NaN timeout is never enforced. *)
  if not (Float.is_finite probe_period_s && probe_period_s > 0.0) then
    invalid_arg "Gateway.config: probe_period_s must be finite and > 0";
  if not (Float.is_finite shard_timeout_s && shard_timeout_s >= 0.0) then
    invalid_arg "Gateway.config: shard_timeout_s must be finite and >= 0";
  { listen_addr = Transport.parse_exn listen;
    shards = List.map Transport.parse_exn shards;
    policy; cache_capacity; forwarders; queue_capacity; probe_period_s;
    fail_threshold; shard_timeout_s; journal_dir; recover }

(* One backend shard and the load signals gossiped back from it. *)
type shard = {
  sname : string;
  saddr : Transport.addr;
  depth : int Atomic.t;  (* last gossiped admission-queue depth *)
  ewma_bits : int64 Atomic.t;  (* Int64 bits of the service-time EWMA, ms *)
  last_hb_bits : int64 Atomic.t;  (* Clock.now of the last push heartbeat *)
}

let shard_last_hb sh = Int64.float_of_bits (Atomic.get sh.last_hb_bits)

let shard_ewma sh = Int64.float_of_bits (Atomic.get sh.ewma_bits)

let shard_note_reply sh (reply : Proto.reply) =
  Option.iter (fun d -> Atomic.set sh.depth d) reply.Proto.queue_depth;
  let prev = shard_ewma sh in
  let next =
    if prev <= 0.0 then reply.Proto.elapsed_ms
    else (0.8 *. prev) +. (0.2 *. reply.Proto.elapsed_ms)
  in
  Atomic.set sh.ewma_bits (Int64.bits_of_float next)

type work = { request : Proto.request; on : Conn.conn; arrival : float }

(* Cache entries carry the request alongside the reply: the reply
   answers repeat traffic, the request is what gets replayed to a
   re-admitted shard so it warms up on the live working set instead of
   taking full traffic on a cold start. *)
type centry = { creq : Proto.request; crep : Proto.reply }

type t = {
  cfg : config;
  listener : Conn.listener;
  ring : Ring.t;
  state : Shard_state.t;
  cache : centry Cache.t;
  journal : Journal.t option;
  shards : shard list;
  names : string list;  (* shard names, in configuration order *)
  queue : work Squeue.t;
  meters : Meters.t;
  m_replayed : Metrics.counter;
  m_rerouted : Metrics.counter;
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_cache_evictions : Metrics.counter;
  m_cache_size : Metrics.gauge;
  m_shards_alive : Metrics.gauge;
  m_journal_hits : Metrics.counter;
  m_journal_replays : Metrics.counter;
  m_journal_pending : Metrics.gauge;
  m_admission_shed : Metrics.counter;
  m_heartbeats : Metrics.counter;
  m_breaker_open : Metrics.gauge;
  m_warm_replays : Metrics.counter;
  m_warming : Metrics.gauge;
  n_busy : int Atomic.t;
  last_evictions : int Atomic.t; (* Cache.stats watermark already counted *)
}

(* Per-shard labeled families; registration is idempotent, so fetching
   the handle at use sites is a hashtable lookup. *)
let fwd_counter t shard =
  Metrics.counter t.meters.Meters.registry ~labels:[ ("shard", shard) ]
    ~help:"Jobs forwarded to a shard" "csched_gateway_forwarded_total"

let shard_fail_counter t shard =
  Metrics.counter t.meters.Meters.registry ~labels:[ ("shard", shard) ]
    ~help:"Transport failures talking to a shard"
    "csched_gateway_shard_failures_total"

let shard_depth_gauge t shard =
  Metrics.gauge t.meters.Meters.registry ~labels:[ ("shard", shard) ]
    ~help:"Last gossiped shard admission-queue depth" "csched_shard_queue_depth"

let shard_ewma_gauge t shard =
  Metrics.gauge t.meters.Meters.registry ~labels:[ ("shard", shard) ]
    ~help:"Shard service-time EWMA (ms)" "csched_shard_ewma_ms"

(* 0 = closed, 1 = half-open, 2 = open *)
let breaker_state_gauge t shard =
  Metrics.gauge t.meters.Meters.registry ~labels:[ ("shard", shard) ]
    ~help:"Circuit-breaker state (0 closed, 1 half-open, 2 open)"
    "csched_breaker_state"

let create (cfg : config) =
  let shards =
    List.map
      (fun saddr ->
        { sname = Transport.to_string saddr; saddr;
          depth = Atomic.make 0; ewma_bits = Atomic.make (Int64.bits_of_float 0.0);
          last_hb_bits = Atomic.make (Int64.bits_of_float 0.0) })
      cfg.shards
  in
  let names = List.map (fun s -> s.sname) shards in
  let listener = Conn.listen cfg.listen_addr in
  let meters = Meters.create () in
  Metrics.set meters.Meters.workers (float_of_int cfg.forwarders);
  let counter = Metrics.counter meters.Meters.registry in
  let gauge = Metrics.gauge meters.Meters.registry in
  (* Runs with the shard-state lock held: trace and count, nothing more. *)
  let on_transition ~shard transition =
    let instant ?(args = []) name =
      Cs_obs.Obs.instant ~cat:"gateway"
        ~args:(("shard", Cs_obs.Obs.Str shard) :: args) name
    in
    let count family help to_ =
      Metrics.incr (counter ~labels:[ ("shard", shard); ("to", to_) ] ~help family)
    in
    let health_help = "Shard health-state transitions" in
    match transition with
    | Shard_state.Evicted ->
      instant "health:evict";
      count "csched_health_transitions_total" health_help "dead"
    | Shard_state.Readmitted ->
      instant "health:readmit";
      count "csched_health_transitions_total" health_help "healthy"
    | Shard_state.Breaker b ->
      let to_ = Shard_state.breaker_name b in
      instant ~args:[ ("to", Cs_obs.Obs.Str to_) ] "breaker:transition";
      count "csched_breaker_transitions_total" "Circuit-breaker state transitions" to_
  in
  let journal =
    Option.map
      (fun dir -> Journal.open_dir ~dir ~recover:cfg.recover ())
      cfg.journal_dir
  in
  { cfg; listener;
    ring = Ring.make names;
    state = Shard_state.create ~fail_threshold:cfg.fail_threshold ~on_transition names;
    cache = Cache.create ~capacity:cfg.cache_capacity;
    journal;
    shards;
    names;
    queue = Squeue.create ~capacity:cfg.queue_capacity;
    meters;
    m_replayed = counter ~help:"Jobs replayed on another shard after a transport failure"
        "csched_gateway_replayed_total";
    m_rerouted = counter ~help:"Jobs rerouted after an overload refusal"
        "csched_gateway_rerouted_total";
    m_cache_hits = counter ~help:"Result-cache hits" "csched_cache_hits_total";
    m_cache_misses = counter ~help:"Result-cache misses" "csched_cache_misses_total";
    m_cache_evictions = counter ~help:"Result-cache LRU evictions"
        "csched_cache_evictions_total";
    m_cache_size = gauge ~help:"Result-cache resident entries" "csched_cache_size";
    m_shards_alive = gauge ~help:"Shards currently dispatchable" "csched_shards_alive";
    m_journal_hits = counter ~help:"Retries answered from the durable journal"
        "csched_journal_hits_total";
    m_journal_replays = counter
        ~help:"Unacked journaled jobs re-dispatched after recovery"
        "csched_journal_replays_total";
    m_journal_pending = gauge ~help:"Journaled jobs admitted but not yet answered"
        "csched_journal_pending";
    m_admission_shed = counter
        ~help:"Jobs shed by the adaptive admission watermark"
        "csched_gateway_admission_shed_total";
    m_heartbeats = counter ~help:"Push heartbeats received from shards"
        "csched_heartbeats_total";
    m_breaker_open = gauge ~help:"Shards with a tripped circuit breaker"
        "csched_breaker_open";
    m_warm_replays = counter
        ~help:"Cache entries replayed to re-admitted shards for warm-up"
        "csched_gateway_warm_replays_total";
    m_warming = gauge ~help:"Shards currently inside their admission ramp"
        "csched_gateway_warming_shards";
    n_busy = Atomic.make 0; last_evictions = Atomic.make 0 }

let address t = Conn.address t.listener
let stopping t = Conn.stopping t.listener
let meters t = t.meters

let alive_count t = List.length (Shard_state.alive t.state t.names)

let warming_count t =
  let now = Cs_obs.Clock.now () in
  List.length (List.filter (fun n -> Shard_state.ramp t.state n ~now < 1.0) t.names)

(* Mirror live values into registry gauges so snapshots carry them. *)
let sync_gauges t =
  Metrics.set t.meters.Meters.queue_depth (float_of_int (Squeue.length t.queue));
  Metrics.set t.meters.Meters.busy (float_of_int (Atomic.get t.n_busy));
  Metrics.set t.meters.Meters.connections_open
    (float_of_int (Conn.connections t.listener));
  Metrics.set t.m_shards_alive (float_of_int (alive_count t));
  Metrics.set t.m_cache_size (float_of_int (Cache.stats t.cache).Cache.size);
  Metrics.set t.m_journal_pending
    (float_of_int (match t.journal with Some j -> Journal.lag j | None -> 0));
  Metrics.set t.m_breaker_open (float_of_int (Shard_state.open_count t.state));
  Metrics.set t.m_warming (float_of_int (warming_count t));
  List.iter
    (fun sh ->
      Metrics.set (shard_depth_gauge t sh.sname) (float_of_int (Atomic.get sh.depth));
      Metrics.set (shard_ewma_gauge t sh.sname) (shard_ewma sh);
      Metrics.set (breaker_state_gauge t sh.sname)
        (match Shard_state.breaker t.state sh.sname with
        | Shard_state.Closed -> 0.0
        | Shard_state.Half_open -> 1.0
        | Shard_state.Open -> 2.0))
    t.shards

(* The cache counts evictions internally; fold the delta into the
   monotone registry counter exactly once even with racing forwarders. *)
let note_evictions t =
  let total = (Cache.stats t.cache).Cache.evictions in
  let rec claim () =
    let seen = Atomic.get t.last_evictions in
    if total > seen then
      if Atomic.compare_and_set t.last_evictions seen total then
        Metrics.incr ~by:(total - seen) t.m_cache_evictions
      else claim ()
  in
  claim ()

type stats = {
  admitted : int;
  completed : int;
  refused : int;
  shed : int;
  forwarded : int;
  replayed : int;
  rerouted : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  journal_hits : int;
  journal_replays : int;
  journal_pending : int;
  admission_shed : int;
  heartbeats : int;
  breaker_open : int;
  warm_replays : int;
}

let stats t =
  let c = Cache.stats t.cache in
  { admitted = Metrics.counter_value t.meters.Meters.admitted;
    completed = Metrics.counter_value t.meters.Meters.completed;
    refused = Metrics.counter_value t.meters.Meters.refused;
    shed = Metrics.counter_value t.meters.Meters.shed;
    forwarded =
      List.fold_left
        (fun acc sh -> acc + Metrics.counter_value (fwd_counter t sh.sname))
        0 t.shards;
    replayed = Metrics.counter_value t.m_replayed;
    rerouted = Metrics.counter_value t.m_rerouted;
    cache_hits = c.Cache.hits;
    cache_misses = c.Cache.misses;
    cache_evictions = c.Cache.evictions;
    journal_hits = Metrics.counter_value t.m_journal_hits;
    journal_replays = Metrics.counter_value t.m_journal_replays;
    journal_pending = (match t.journal with Some j -> Journal.lag j | None -> 0);
    admission_shed = Metrics.counter_value t.m_admission_shed;
    heartbeats = Metrics.counter_value t.m_heartbeats;
    breaker_open = Shard_state.open_count t.state;
    warm_replays = Metrics.counter_value t.m_warm_replays }

let shard_states t = List.map (fun n -> (n, Shard_state.health t.state n)) t.names

let server_stats t =
  let s = stats t in
  let c = Cache.stats t.cache in
  let alive = alive_count t in
  { Proto.queue_depth = Squeue.length t.queue;
    workers = t.cfg.forwarders;
    busy = Atomic.get t.n_busy;
    admitted = s.admitted;
    completed = s.completed;
    shed = s.shed;
    refusals = s.refused;
    extra =
      [ ("cache_hits", float_of_int s.cache_hits);
        ("cache_misses", float_of_int s.cache_misses);
        ("cache_evictions", float_of_int s.cache_evictions);
        ("cache_size", float_of_int c.Cache.size);
        ("forwarded", float_of_int s.forwarded);
        ("replayed", float_of_int s.replayed);
        ("rerouted", float_of_int s.rerouted);
        ("shards_alive", float_of_int alive);
        ("shards_total", float_of_int (List.length t.shards));
        ("journal_hits", float_of_int s.journal_hits);
        ("journal_replays", float_of_int s.journal_replays);
        ("journal_pending", float_of_int s.journal_pending);
        ("admission_shed", float_of_int s.admission_shed);
        ("heartbeats", float_of_int s.heartbeats);
        ("breaker_open", float_of_int s.breaker_open);
        ("warm_replays", float_of_int s.warm_replays);
        ("warming_shards", float_of_int (warming_count t)) ] }

let send_reply conn reply = Conn.send_line conn (Proto.reply_to_line reply)

(* --- cache key ----------------------------------------------------- *)

(* The cache key is the canonical scenario identity, not the request
   text: two requests naming the same machine through different aliases,
   or carrying different ids/deadlines, resolve to the same key. A
   request that does not resolve gets a typed local refusal — no shard
   hop for garbage. *)
let scenario_key (r : Proto.request) =
  let ( let* ) = Result.bind in
  let* machine =
    Proto.machine_of_name r.Proto.machine
    |> Result.map_error (fun e -> Cs_resil.Error.Invalid_input e)
  in
  let* entry =
    match Cs_workloads.Suite.find r.Proto.bench with
    | Some e -> Ok e
    | None ->
      Error
        (Cs_resil.Error.Invalid_input
           (Printf.sprintf "unknown benchmark %S" r.Proto.bench))
  in
  let region =
    entry.Cs_workloads.Suite.generate ~scale:r.Proto.scale
      ~clusters:(Cs_machine.Machine.n_clusters machine) ()
  in
  let spec =
    Printf.sprintf "scheduler %s passes %s seed %s" r.Proto.scheduler
      (Option.value ~default:"default" r.Proto.passes)
      (match r.Proto.seed with Some s -> string_of_int s | None -> "-")
  in
  Ok (Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~spec ~machine region))

(* Only full-quality schedules are cached: an anytime early exit or a
   refusal is a property of that moment's load, not of the scenario. *)
let cacheable (reply : Proto.reply) =
  match reply.Proto.verdict with
  | Proto.Scheduled s -> not s.timed_out
  | Proto.Refused _ -> false

(* --- forwarding ---------------------------------------------------- *)

type attempt_outcome =
  | Answered of Proto.reply
  | Shard_overloaded of Proto.reply
  | Transport_failure of string

(* One-shot connection: send the one job, wait for its one reply. EOF
   before the reply means the shard died (or aborted) with the job in
   flight — a transport failure, distinct from a shed job, which is a
   well-formed [overloaded] refusal. *)
let forward_once t sh (r : Proto.request) =
  match
    Cs_svc.Client.submit ~timeout_s:t.cfg.shard_timeout_s ~addr:sh.saddr [ r ]
  with
  | Error e -> Transport_failure e
  | Ok [] -> Transport_failure "shard closed the connection before replying"
  | Ok (reply :: _) ->
    shard_note_reply sh reply;
    (match reply.Proto.verdict with
    | Proto.Refused { kind; _ } when kind = "overloaded" -> Shard_overloaded reply
    | _ -> Answered reply)

let views t names =
  List.filter_map
    (fun sh ->
      if List.mem sh.sname names then
        Some
          { Policy.name = sh.sname; queue_depth = Atomic.get sh.depth;
            ewma_ms = shard_ewma sh }
      else None)
    t.shards

let shard_by_name t name = List.find (fun sh -> sh.sname = name) t.shards

(* Walk the policy-ordered candidates until one answers. Transport
   failures feed the health tracker and replay the job on the next
   candidate; overload refusals reroute without a health penalty (the
   shard is alive, just full). The last overload refusal is kept as the
   answer of record in case every live shard is saturated.

   The circuit breaker gates each attempt: an open breaker skips the
   shard without a connection attempt, and every granted attempt —
   including the half-open trial — reports its outcome back through
   [Shard_state.record], which feeds both eviction (consecutive
   failures) and the breaker (failure rate). *)
let dispatch t (r : Proto.request) ~key =
  let usable = Shard_state.alive t.state t.names in
  let khash = Cs_core.Scenario.fnv1a key in
  let order =
    Policy.order t.cfg.policy ~ring:t.ring ~key:khash
      ~deadline_ms:r.Proto.deadline_ms (views t usable)
  in
  (* Admission ramp: a warming shard serves only a deterministic,
     growing slice of the keyspace — demoted (not removed) for the
     rest, so it still catches jobs no other shard can take. The slice
     is keyed on the scenario hash, so a given scenario flips from
     "elsewhere" to "warming shard" exactly once during the ramp. *)
  let order =
    let now = Cs_obs.Clock.now () in
    let full, ramped =
      List.partition
        (fun name ->
          let frac = Shard_state.ramp t.state name ~now in
          frac >= 1.0
          || Int64.to_int khash land 1023 < int_of_float (frac *. 1024.0))
        order
    in
    full @ ramped
  in
  let breaker_skips = ref 0 in
  let rec walk ~replaying ~last_overload = function
    | [] ->
      (match last_overload with
      | Some reply -> reply
      | None ->
        Proto.refused ~id:r.Proto.id
          (Cs_resil.Error.Overloaded
             (if order = [] then "no live shards"
              else if !breaker_skips = List.length order then
                "every live shard's circuit breaker is open"
              else "every live shard failed while handling the job")))
    | name :: rest ->
      if not (Shard_state.allow t.state name ~now:(Cs_obs.Clock.now ())) then begin
        incr breaker_skips;
        walk ~replaying ~last_overload rest
      end
      else begin
        let sh = shard_by_name t name in
        if replaying then begin
          Metrics.incr t.m_replayed;
          Cs_obs.Obs.instant ~cat:"gateway"
            ~args:
              [ ("job", Cs_obs.Obs.Str r.Proto.id); ("shard", Cs_obs.Obs.Str name) ]
            "gateway:replay"
        end;
        let record ~ok ~elapsed_ms =
          Shard_state.record t.state name ~now:(Cs_obs.Clock.now ()) ~ok ~elapsed_ms
        in
        match forward_once t sh r with
        | Answered reply ->
          record ~ok:true ~elapsed_ms:reply.Proto.elapsed_ms;
          Metrics.incr (fwd_counter t name);
          reply
        | Shard_overloaded reply ->
          record ~ok:true ~elapsed_ms:0.0;
          if rest <> [] then Metrics.incr t.m_rerouted;
          walk ~replaying:false ~last_overload:(Some reply) rest
        | Transport_failure why ->
          record ~ok:false ~elapsed_ms:0.0;
          Metrics.incr (shard_fail_counter t name);
          Cs_obs.Obs.instant ~cat:"gateway"
            ~args:
              [ ("shard", Cs_obs.Obs.Str name); ("error", Cs_obs.Obs.Str why) ]
            "gateway:shard-failure";
          walk ~replaying:true ~last_overload rest
      end
  in
  walk ~replaying:false ~last_overload:None order

(* The journal key: canonical scenario identity joined with the
   client's idempotency key. Without an idempotency key the request id
   stands in — enough to pair this journal's admit/done records for
   replay, but dedup across retries is only promised to keyed jobs
   (two distinct keyless submissions may legitimately share an id). *)
let journal_key ~key (r : Proto.request) =
  key ^ "#"
  ^ (match r.Proto.idem_key with
    | Some k -> "i:" ^ k
    | None -> "r:" ^ r.Proto.id)

let handle_job t (r : Proto.request) ~arrival ~send =
  let t0 = Cs_obs.Clock.now () in
  (* This gateway hop's trace context: adopt the client's trace when
     the request carries one, otherwise start the trace here — either
     way the shard sees this hop as its parent span. *)
  let ctx =
    match Proto.trace_of_request r with
    | Some c -> c
    | None -> Cs_obs.Tracectx.root ()
  in
  let job_args = ("id", Cs_obs.Obs.Str r.Proto.id) :: Cs_obs.Tracectx.args ctx in
  let answer reply =
    (match reply.Proto.verdict with
    | Proto.Scheduled _ ->
      Metrics.incr t.meters.Meters.completed;
      if r.Proto.deadline_ms <> None then
        Metrics.record_deadline t.meters.Meters.deadline ~hit:true
    | Proto.Refused e ->
      Metrics.incr t.meters.Meters.refused;
      if e.kind = "deadline-exceeded" then
        Metrics.record_deadline t.meters.Meters.deadline ~hit:false);
    Metrics.observe t.meters.Meters.latency_ms
      ((Cs_obs.Clock.now () -. arrival) *. 1000.0);
    (* gateway-level gossip, mirroring what shards do for the gateway *)
    send
      { reply with
        Proto.reply_id = r.Proto.id;
        queue_depth = Some (Squeue.length t.queue) }
  in
  match scenario_key r with
  | Error err -> answer (Proto.refused ~id:r.Proto.id err)
  | Ok key ->
    let jkey = journal_key ~key r in
    let journal_hit =
      match t.journal with
      | Some j when r.Proto.idem_key <> None -> Journal.completed j jkey
      | _ -> None
    in
    (match journal_hit with
    | Some reply ->
      (* a retry of a job this gateway (or its predecessor) already
         answered: serve the journaled verdict, no re-execution *)
      Metrics.incr t.m_journal_hits;
      Cs_obs.Obs.instant ~cat:"gateway" ~args:job_args "gateway:journal-hit";
      answer
        { reply with
          Proto.reply_id = r.Proto.id;
          elapsed_ms = (Cs_obs.Clock.now () -. t0) *. 1000.0;
          cached = true }
    | None ->
      (match Cache.find t.cache key with
      | Some { crep = cached; _ } ->
        Metrics.incr t.m_cache_hits;
        Cs_obs.Obs.instant ~cat:"gateway" ~args:job_args "gateway:cache-hit";
        answer
          { cached with
            Proto.reply_id = r.Proto.id;
            elapsed_ms = (Cs_obs.Clock.now () -. t0) *. 1000.0;
            cached = true }
      | None ->
        Metrics.incr t.m_cache_misses;
        (* durable admit *before* the shard can see the job: a gateway
           death from here on leaves a replayable record *)
        Option.iter (fun j -> Journal.admit j ~key:jkey r) t.journal;
        let reply =
          Cs_obs.Obs.span ~cat:"gateway" ~args:job_args "job:dispatch" (fun () ->
              dispatch t (Proto.with_trace ~ctx r) ~key)
        in
        Option.iter (fun j -> Journal.mark_done j ~key:jkey reply) t.journal;
        if cacheable reply then begin
          Cache.put t.cache key { creq = r; crep = reply };
          note_evictions t
        end;
        answer reply))

let forwarder t () =
  let rec loop () =
    match Squeue.pop t.queue with
    | None -> ()
    | Some { request; on; arrival } ->
      Atomic.incr t.n_busy;
      let wait_s = Cs_obs.Clock.now () -. arrival in
      Metrics.observe t.meters.Meters.queue_wait_ms (wait_s *. 1000.0);
      Cs_obs.Obs.complete ~cat:"gateway"
        ~args:[ ("id", Cs_obs.Obs.Str request.Proto.id) ]
        "job:queue" ~ts:arrival ~dur:wait_s;
      (try handle_job t request ~arrival ~send:(fun reply -> send_reply on reply)
       with e ->
         send_reply on
           (Proto.refused ~id:request.Proto.id
              (Cs_resil.Error.Pass_failure (Printexc.to_string e))));
      Atomic.decr t.n_busy;
      sync_gauges t;
      Conn.job_done on;
      loop ()
  in
  loop ()

(* Recovery replay: the jobs a dead gateway admitted but never
   answered. Their clients are gone, so replies go nowhere — the point
   is to finish the work, journal the verdicts, and warm the dedup map
   and cache so client retries carrying the same idempotency keys get
   the journaled answer instead of a second execution. *)
let replay_pending t =
  match t.journal with
  | None -> ()
  | Some j ->
    List.iter
      (fun (jkey, request) ->
        if not (stopping t) then begin
          Metrics.incr t.m_journal_replays;
          Cs_obs.Obs.instant ~cat:"gateway"
            ~args:
              [ ("key", Cs_obs.Obs.Str jkey);
                ("id", Cs_obs.Obs.Str request.Proto.id) ]
            "journal:replay";
          try handle_job t request ~arrival:(Cs_obs.Clock.now ()) ~send:ignore
          with _ -> ()
        end)
      (Journal.pending j)

(* --- health prober ------------------------------------------------- *)

(* Periodic ping against every shard: refreshes queue-depth gossip
   between jobs, detects silent deaths before a job trips over them, and
   carries the probation probe that re-admits a dead shard once its
   backoff expires. A shard whose push heartbeat arrived within the
   last two periods is skipped — its load vector is already fresher
   than a probe would make it, so heartbeating fleets idle without
   polling round trips. *)
let prober t () =
  let probe_timeout = Float.min 2.0 (Float.max 0.2 t.cfg.probe_period_s) in
  let hb_fresh sh =
    let last = shard_last_hb sh in
    last > 0.0 && Cs_obs.Clock.now () -. last < 2.0 *. t.cfg.probe_period_s
  in
  let probe sh =
    let ok =
      match
        Cs_svc.Client.fetch_stats ~timeout_s:probe_timeout ~addr:sh.saddr ()
      with
      | Ok st ->
        Atomic.set sh.depth st.Proto.queue_depth;
        true
      | Error _ -> false
    in
    Shard_state.note t.state sh.sname ~now:(Cs_obs.Clock.now ()) ~ok
  in
  (* Warm-up replay for a shard just re-admitted: taking it starts the
     admission ramp, then the shard is fed the hottest cached scenarios
     as batch-class jobs (no deadline, no idempotency key — these are
     throwaway warmers, not client traffic). Runs inline on the prober
     domain; the ramp in [dispatch] keeps real traffic mostly elsewhere
     while this drains. *)
  let warm sh =
    if Shard_state.take_warm t.state sh.sname ~now:(Cs_obs.Clock.now ()) then begin
      let entries = Cache.export t.cache ~n:warm_entries in
      Cs_obs.Obs.instant ~cat:"gateway"
        ~args:
          [ ("shard", Cs_obs.Obs.Str sh.sname);
            ("entries", Cs_obs.Obs.Int (List.length entries)) ]
        "gateway:warm-replay";
      List.iter
        (fun (_, e) ->
          if not (stopping t) then
            let r =
              { e.creq with
                Proto.id = e.creq.Proto.id ^ "#warm";
                deadline_ms = None;
                idem_key = None;
                job_class = Some "batch" }
            in
            match
              Cs_svc.Client.submit ~timeout_s:t.cfg.shard_timeout_s
                ~addr:sh.saddr [ r ]
            with
            | Ok _ -> Metrics.incr t.m_warm_replays
            | Error _ -> ())
        entries
    end
  in
  let rec loop () =
    if not (stopping t) then begin
      List.iter
        (fun sh ->
          if not (stopping t) then
            if Shard_state.usable t.state sh.sname then begin
              if not (hb_fresh sh) then probe sh;
              warm sh
            end
            else if Shard_state.probe_due t.state sh.sname ~now:(Cs_obs.Clock.now ())
            then probe sh)
        t.shards;
      Conn.sleep t.listener t.cfg.probe_period_s;
      loop ()
    end
  in
  loop ()

(* --- adaptive admission -------------------------------------------- *)

(* Shed before queueing when the fleet can't plausibly absorb the
   backlog. The watermark scales with the live fraction of the fleet:
   with every shard up it sits at [shed_watermark * queue_capacity];
   when shards die it drops proportionally, so the gateway starts
   refusing early instead of letting jobs time out in its own queue.
   Journal lag (journaled admits not yet answered) sheds for the same
   reason on the durability axis: an unbounded pending set is a
   recovery-time bomb. *)
let admission_shed_reason t =
  let depth = Squeue.length t.queue in
  let total = List.length t.shards in
  let alive = alive_count t in
  let watermark =
    max 1
      (int_of_float
         (float_of_int t.cfg.queue_capacity *. shed_watermark
         *. float_of_int (max 1 alive) /. float_of_int total))
  in
  if depth >= watermark then
    Some
      (Printf.sprintf
         "gateway admission watermark: queue depth %d >= %d (%d/%d shards \
          alive)"
         depth watermark alive total)
  else
    match t.journal with
    | Some j when Journal.lag j >= journal_lag_limit ->
      Some
        (Printf.sprintf "gateway journal lag %d >= %d" (Journal.lag j)
           journal_lag_limit)
    | _ -> None

(* --- serving ------------------------------------------------------- *)

let handle_line t conn line =
  let line = String.trim line in
  if line <> "" then begin
    match Proto.incoming_of_line line with
    | Error e ->
      Metrics.incr t.meters.Meters.refused;
      send_reply conn (Proto.refused ~id:"" (Cs_resil.Error.Invalid_input e))
    | Ok (Proto.Control { op = Proto.Metrics_query format; id }) ->
      sync_gauges t;
      Conn.send_line conn
        (Proto.metrics_reply_to_line ~id (Meters.metrics_payload t.meters format))
    | Ok (Proto.Control { op; id }) ->
      let s = server_stats t in
      (match op with
      | Proto.Stats_query ->
        Cs_obs.Obs.counter ~cat:"gateway" "gateway:stats"
          (("queue_depth", float_of_int s.Proto.queue_depth)
          :: ("busy", float_of_int s.Proto.busy)
          :: s.Proto.extra)
      | Proto.Ping | Proto.Metrics_query _ -> ());
      Conn.send_line conn (Proto.pong_to_line ~id s)
    | Ok (Proto.Heartbeat hb) ->
      (* a shard's heartbeat stream never ends on its own: severed on
         stop so its reader can be joined *)
      Conn.mark_persistent conn;
      (match
         List.find_opt (fun sh -> sh.sname = hb.Proto.hb_shard) t.shards
       with
      | Some sh ->
        Atomic.set sh.depth hb.Proto.hb_depth;
        let now = Cs_obs.Clock.now () in
        Atomic.set sh.last_hb_bits (Int64.bits_of_float now);
        Metrics.incr t.m_heartbeats;
        (* a heartbeat is proof of life: it re-admits a buried shard
           without waiting for the prober's probation slot *)
        Shard_state.note t.state sh.sname ~now ~ok:true
      | None ->
        (* unknown shard name: not ours to track, and no reply to
           send — heartbeats are one-way *)
        ())
    | Ok (Proto.Job_request request) ->
      Conn.add_pending conn;
      let shed_reason =
        if stopping t then Some "gateway is draining"
        else
          match admission_shed_reason t with
          | Some reason ->
            Metrics.incr t.m_admission_shed;
            Some reason
          | None ->
            if
              Squeue.try_push t.queue
                { request; on = conn; arrival = Cs_obs.Clock.now () }
            then None
            else
              Some
                (Printf.sprintf "gateway admission queue full (%d jobs)"
                   t.cfg.queue_capacity)
      in
      (match shed_reason with
      | Some reason ->
        Metrics.incr t.meters.Meters.shed;
        send_reply conn
          (Proto.refused ~id:request.Proto.id (Cs_resil.Error.Overloaded reason));
        Conn.job_done conn
      | None -> Metrics.incr t.meters.Meters.admitted)
  end

(* Client connections are left alone by [stop]: the graceful drain
   finishes answering them. *)
let stop t =
  if Conn.stop t.listener then Cs_obs.Obs.instant ~cat:"gateway" "gateway:stop"

let run t =
  let forwarders = List.init t.cfg.forwarders (fun _ -> Domain.spawn (forwarder t)) in
  let prober_d = Domain.spawn (prober t) in
  let replayer_d = Domain.spawn (fun () -> replay_pending t) in
  let addr = Transport.to_string (address t) in
  Cs_obs.Obs.instant ~cat:"gateway"
    ~args:
      [ ("addr", Cs_obs.Obs.Str addr);
        ("shards", Cs_obs.Obs.Int (List.length t.shards));
        ("policy", Cs_obs.Obs.Str (Policy.to_string t.cfg.policy)) ]
    "gateway:listen";
  Cs_obs.Obs.instant ~cat:"meta"
    ~args:[ ("role", Cs_obs.Obs.Str "gateway"); ("addr", Cs_obs.Obs.Str addr) ]
    "process";
  Conn.serve t.listener (handle_line t);
  Squeue.close t.queue;
  List.iter Domain.join forwarders;
  Domain.join prober_d;
  Domain.join replayer_d;
  Option.iter Journal.close t.journal;
  Conn.close t.listener;
  let s = stats t in
  Cs_obs.Obs.counter ~cat:"gateway" "gateway:drained"
    [ ("admitted", float_of_int s.admitted);
      ("completed", float_of_int s.completed);
      ("refused", float_of_int s.refused);
      ("shed", float_of_int s.shed);
      ("forwarded", float_of_int s.forwarded);
      ("replayed", float_of_int s.replayed);
      ("cache_hits", float_of_int s.cache_hits) ]
