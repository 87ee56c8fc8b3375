type config = {
  listen_addr : Transport.addr;
  workers : int;
  queue_capacity : int;
  default_deadline_ms : float option;
  pass_budget_s : float option;
  chaos_slow_ms : float option;
  retry : Retry.policy option;
  heartbeat_addr : Transport.addr option;
  heartbeat_period_s : float;
  advertise : string option;
  split_threshold : int;
  tenant_quota : int;
  tenant_weights : (string * int) list;
  batch_share : int;
  brownout : Brownout.settings option;
}

let config ?(workers = 2) ?(queue_capacity = 16) ?default_deadline_ms
    ?pass_budget_s ?chaos_slow_ms ?retry ?heartbeat ?(heartbeat_period_s = 1.0)
    ?advertise ?(split_threshold = 16) ?(tenant_quota = 0) ?(tenant_weights = [])
    ?(batch_share = 4) ?brownout addr =
  (* NaN compares false both ways: a NaN period never sleeps and a NaN
     budget or deadline is never enforced. *)
  if not (Float.is_finite heartbeat_period_s && heartbeat_period_s > 0.0) then
    invalid_arg "Server.config: heartbeat_period_s must be finite and > 0";
  let non_negative name = function
    | Some v when not (Float.is_finite v && v >= 0.0) ->
      invalid_arg ("Server.config: " ^ name ^ " must be finite and >= 0")
    | _ -> ()
  in
  non_negative "pass_budget_s" pass_budget_s;
  non_negative "default_deadline_ms" default_deadline_ms;
  { listen_addr = Transport.parse_exn addr; workers; queue_capacity;
    default_deadline_ms; pass_budget_s; chaos_slow_ms; retry;
    heartbeat_addr = Option.map Transport.parse_exn heartbeat;
    heartbeat_period_s; advertise; split_threshold; tenant_quota;
    tenant_weights; batch_share; brownout }

type stats = {
  admitted : int;
  completed : int;
  shed : int;
  refused : int;
  quota_refused : int;
}

(* Fan-in state for a job split into stealable parts: each part folds
   its verdict in under the mutex; whoever folds the last part builds
   and sends the aggregate reply. Sequential-composition semantics:
   cycles and transfers sum, the worst fallback rung wins, timed_out
   is sticky, and the first refusal (if any) refuses the whole job. *)
type agg = {
  a_mutex : Mutex.t;
  orig : Job.t;  (* the whole job, for ids/deadline/latency accounting *)
  mutable a_left : int;
  mutable a_cycles : int;
  mutable a_transfers : int;
  mutable a_rung_rank : int;
  mutable a_timed_out : bool;
  mutable a_quarantined : int;
  mutable a_elapsed_ms : float;
  mutable a_refusal : (string * string) option;
}

type work = {
  job : Job.t;  (* for a split part, [request.scale] is the part's share *)
  on : Conn.conn;
  agg : agg option;  (* [None] = whole, unsplit job *)
}

type t = {
  cfg : config;
  listener : Conn.listener;
  fairq : work Fairq.t;
  deques : work Deque.t array;  (* one per worker domain *)
  overflow : work Squeue.t;  (* split parts that found their deque full *)
  brownout : Brownout.t option;
  aborted : bool Atomic.t;
  meters : Meters.t;
  quota_meter : Cs_obs.Metrics.counter;
  n_busy : int Atomic.t;
}

let send_reply conn reply = Conn.send_line conn (Proto.reply_to_line reply)

let create cfg =
  if cfg.workers <= 0 then invalid_arg "Server.create: workers must be positive";
  let listener = Conn.listen cfg.listen_addr in
  let meters = Meters.create () in
  Cs_obs.Metrics.set meters.Meters.workers (float_of_int cfg.workers);
  { cfg; listener;
    fairq =
      Fairq.create ~tenant_quota:cfg.tenant_quota ~weights:cfg.tenant_weights
        ~batch_share:cfg.batch_share ~capacity:cfg.queue_capacity ();
    (* Per-worker deques hold split parts; size them to a few splits'
       worth so overflow-to-global stays the exception. *)
    deques = Array.init cfg.workers (fun _ -> Deque.create ~capacity:32);
    overflow = Squeue.create ~capacity:(max 64 (4 * cfg.queue_capacity));
    brownout = Option.map Brownout.create cfg.brownout;
    aborted = Atomic.make false; meters;
    quota_meter =
      Cs_obs.Metrics.counter meters.Meters.registry
        ~help:"Jobs refused because their tenant was over quota"
        "csched_jobs_quota_refused_total";
    n_busy = Atomic.make 0 }

let address t = Conn.address t.listener
let meters t = t.meters

(* Waiting work across every structure: the admission queue plus split
   parts parked on worker deques or the overflow queue. *)
let queue_depth t =
  Fairq.length t.fairq + Squeue.length t.overflow
  + Array.fold_left (fun acc d -> acc + Deque.length d) 0 t.deques

(* Live values mirror into registry gauges at the moments they change
   (or are read), so metrics snapshots and the stats verb agree. *)
let sync_gauges t =
  Cs_obs.Metrics.set t.meters.Meters.queue_depth (float_of_int (queue_depth t));
  Cs_obs.Metrics.set t.meters.Meters.queue_depth_peak
    (float_of_int (Fairq.peak t.fairq));
  Cs_obs.Metrics.set t.meters.Meters.busy (float_of_int (Atomic.get t.n_busy));
  Cs_obs.Metrics.set t.meters.Meters.connections_open
    (float_of_int (Conn.connections t.listener));
  match t.brownout with
  | None -> ()
  | Some bo ->
    Cs_obs.Metrics.set t.meters.Meters.brownout_level
      (float_of_int (Brownout.level bo))

let stats t =
  { admitted = Cs_obs.Metrics.counter_value t.meters.Meters.admitted;
    completed = Cs_obs.Metrics.counter_value t.meters.Meters.completed;
    shed = Cs_obs.Metrics.counter_value t.meters.Meters.shed;
    refused = Cs_obs.Metrics.counter_value t.meters.Meters.refused;
    quota_refused = Cs_obs.Metrics.counter_value t.quota_meter }

let server_stats t =
  let extra =
    [ ("quota_refused",
       float_of_int (Cs_obs.Metrics.counter_value t.quota_meter));
      ("queue_depth_peak", float_of_int (Fairq.peak t.fairq));
      ("steals",
       float_of_int (Cs_obs.Metrics.counter_value t.meters.Meters.steals));
      ("splits",
       float_of_int (Cs_obs.Metrics.counter_value t.meters.Meters.splits)) ]
    @
    match t.brownout with
    | None -> []
    | Some bo -> [ ("brownout_level", float_of_int (Brownout.level bo)) ]
  in
  { Proto.queue_depth = queue_depth t;
    workers = t.cfg.workers;
    busy = Atomic.get t.n_busy;
    admitted = Cs_obs.Metrics.counter_value t.meters.Meters.admitted;
    completed = Cs_obs.Metrics.counter_value t.meters.Meters.completed;
    shed = Cs_obs.Metrics.counter_value t.meters.Meters.shed;
    refusals = Cs_obs.Metrics.counter_value t.meters.Meters.refused;
    extra }

(* --- job classification -------------------------------------------- *)

let tenant_of (r : Proto.request) =
  match r.Proto.tenant with Some s when s <> "" -> s | _ -> "default"

(* Explicit class wins; otherwise a deadline marks the job interactive
   (someone is waiting on it) and no deadline means batch. *)
let lane_of (job : Job.t) =
  match job.Job.request.Proto.job_class with
  | Some "interactive" -> Fairq.Interactive
  | Some "batch" -> Fairq.Batch
  | _ -> if job.Job.deadline <> None then Fairq.Interactive else Fairq.Batch

let rung_rank = function
  | "requested" -> 0
  | "default-sequence" -> 1
  | "single-cluster" -> 2
  | _ -> 3

let rung_of_rank = function
  | 0 -> "requested"
  | 1 -> "default-sequence"
  | 2 -> "single-cluster"
  | _ -> "unknown"

(* --- execution ----------------------------------------------------- *)

(* Run one (part of a) job under the current brownout level: each
   degradation level halves the effective pass budget, and levels > 0
   impose a synthetic budget on jobs that carry none — quality traded
   for drain rate before anything is shed. *)
let run_job t job =
  let extra_passes =
    Option.map
      (fun ms -> [ Cs_core.Chaos.slow_pass ~delay_ms:ms () ])
      t.cfg.chaos_slow_ms
  in
  let pass_budget_s =
    match t.brownout with
    | None -> t.cfg.pass_budget_s
    | Some bo ->
      (match t.cfg.pass_budget_s with
      | Some b -> Some (b *. Brownout.scale bo)
      | None -> Option.map (fun ms -> ms /. 1000.0) (Brownout.budget_ms bo))
  in
  let r = job.Job.request in
  let ctx = Proto.trace_of_request r in
  let ctx_args = match ctx with None -> [] | Some c -> Cs_obs.Tracectx.args c in
  let job_args = ("id", Cs_obs.Obs.Str r.Proto.id) :: ctx_args in
  Cs_obs.Obs.span ~cat:"svc" ~args:job_args "job:run" (fun () ->
      try Job.run ?retry_policy:t.cfg.retry ?extra_passes ?pass_budget_s job
      with e ->
        (* last-ditch: a bug in the job runner must not kill the
           worker — the client is owed a reply either way *)
        Proto.refused ~id:r.Proto.id
          (Cs_resil.Error.Pass_failure (Printexc.to_string e)))

(* The tail every job shares, whole or reassembled from parts: final
   counters, SLO accounting, the reply (with queue-depth gossip
   piggybacked), and the connection's job-done edge. After an abort
   the connections are severed and nobody can receive the reply, so
   only the edge bookkeeping runs. *)
let finalize t on (job : Job.t) (reply : Proto.reply) =
  if not (Atomic.get t.aborted) then begin
    Cs_obs.Metrics.observe t.meters.Meters.latency_ms
      ((Cs_obs.Clock.now () -. job.Job.arrival) *. 1000.0);
    (match reply.Proto.verdict with
    | Proto.Scheduled _ ->
      Cs_obs.Metrics.incr t.meters.Meters.completed;
      Cs_obs.Metrics.incr
        (Meters.tenant_counter t.meters ~tenant:(tenant_of job.Job.request)
           ~outcome:"completed");
      if job.Job.deadline <> None then
        Cs_obs.Metrics.record_deadline t.meters.Meters.deadline ~hit:true
    | Proto.Refused e ->
      Cs_obs.Metrics.incr t.meters.Meters.refused;
      if e.kind = "deadline-exceeded" then
        Cs_obs.Metrics.record_deadline t.meters.Meters.deadline ~hit:false);
    (* Piggyback the current queue depth so dispatchers upstream can
       run load-aware policies without extra round trips. *)
    send_reply on { reply with Proto.queue_depth = Some (queue_depth t) };
    sync_gauges t
  end;
  Conn.job_done on

(* Fold one part's verdict into the fan-in record; the last part
   reassembles and sends the whole job's reply. *)
let complete_part t w (reply : Proto.reply) =
  match w.agg with
  | None -> finalize t w.on w.job reply
  | Some a ->
    Mutex.lock a.a_mutex;
    (match reply.Proto.verdict with
    | Proto.Scheduled s ->
      a.a_cycles <- a.a_cycles + s.cycles;
      a.a_transfers <- a.a_transfers + s.transfers;
      a.a_rung_rank <- max a.a_rung_rank (rung_rank s.rung);
      a.a_timed_out <- a.a_timed_out || s.timed_out;
      a.a_quarantined <- a.a_quarantined + s.quarantined
    | Proto.Refused e ->
      if a.a_refusal = None then a.a_refusal <- Some (e.kind, e.message));
    a.a_elapsed_ms <- a.a_elapsed_ms +. reply.Proto.elapsed_ms;
    a.a_left <- a.a_left - 1;
    let last = a.a_left = 0 in
    Mutex.unlock a.a_mutex;
    if last then begin
      let id = a.orig.Job.request.Proto.id in
      let whole =
        match a.a_refusal with
        | Some (kind, message) ->
          { Proto.reply_id = id; elapsed_ms = a.a_elapsed_ms;
            verdict = Proto.Refused { kind; message };
            queue_depth = None; cached = false }
        | None ->
          Proto.reply ~id ~elapsed_ms:a.a_elapsed_ms
            (Proto.Scheduled
               { cycles = a.a_cycles;
                 transfers = a.a_transfers;
                 rung = rung_of_rank a.a_rung_rank;
                 timed_out = a.a_timed_out;
                 quarantined = a.a_quarantined })
      in
      finalize t w.on a.orig whole
    end

(* First dequeue of a whole job: queue-wait accounting (feeds the
   brownout signal) and the trace's queue span. Parts skip this — the
   wait was already charged to the whole job. *)
let observe_dequeue t (job : Job.t) =
  let r = job.Job.request in
  let ctx = Proto.trace_of_request r in
  let ctx_args = match ctx with None -> [] | Some c -> Cs_obs.Tracectx.args c in
  let job_args = ("id", Cs_obs.Obs.Str r.Proto.id) :: ctx_args in
  let wait_s = Cs_obs.Clock.now () -. job.Job.arrival in
  let wait_ms = wait_s *. 1000.0 in
  Cs_obs.Metrics.observe t.meters.Meters.queue_wait_ms wait_ms;
  Option.iter (fun bo -> Brownout.observe bo ~wait_ms) t.brownout;
  Cs_obs.Obs.complete ~cat:"svc" ~args:job_args "job:queue" ~ts:job.Job.arrival
    ~dur:wait_s

(* Oversized jobs become k stealable parts (scale splits as evenly as
   possible) so one huge DDG occupies one worker per part instead of
   head-of-line-blocking the pool. All but the first part go to the
   owner's deque — thieves migrate them — with the bounded global
   queue as overflow; anything even that refuses runs inline. *)
let maybe_split t ~deque ~kick w =
  let scale = w.job.Job.request.Proto.scale in
  let thr = t.cfg.split_threshold in
  if w.agg = None && thr > 0 && scale > thr then begin
    let k = (scale + thr - 1) / thr in
    let q = scale / k and rem = scale mod k in
    let a =
      { a_mutex = Mutex.create (); orig = w.job; a_left = k; a_cycles = 0;
        a_transfers = 0; a_rung_rank = 0; a_timed_out = false;
        a_quarantined = 0; a_elapsed_ms = 0.0; a_refusal = None }
    in
    let part i =
      let part_scale = if i < rem then q + 1 else q in
      { job =
          { w.job with
            Job.request = { w.job.Job.request with Proto.scale = part_scale } };
        on = w.on;
        agg = Some a }
    in
    Cs_obs.Metrics.incr t.meters.Meters.splits;
    let inline = ref [ part 0 ] in
    for i = k - 1 downto 1 do
      let p = part i in
      if not (Deque.push deque p) then begin
        Cs_obs.Metrics.incr t.meters.Meters.overflowed;
        if not (Squeue.try_push t.overflow p) then inline := p :: !inline
      end
    done;
    kick ();
    !inline
  end
  else [ w ]

let execute t ~deque ~kick w =
  (* burning worker time on jobs whose replies nobody can receive
     would only delay teardown *)
  let discard w =
    complete_part t w
      (Proto.refused ~id:w.job.Job.request.Proto.id
         (Cs_resil.Error.Overloaded "server aborted"))
  in
  if Atomic.get t.aborted then discard w
  else begin
    let parts =
      if w.agg = None then begin
        observe_dequeue t w.job;
        maybe_split t ~deque ~kick w
      end
      else [ w ]
    in
    List.iter
      (fun w ->
        if Atomic.get t.aborted then discard w
        else begin
          Atomic.incr t.n_busy;
          sync_gauges t;
          let reply = run_job t w.job in
          Atomic.decr t.n_busy;
          complete_part t w reply
        end)
      parts
  end

(* --- worker loops -------------------------------------------------- *)

(* Worker: own deque first (cache-hot split parts, LIFO), then
   the overflow queue, then fair admission, then stealing from
   siblings. Finding nothing, it parks on the fair queue's stamp —
   re-scanning whenever anything arrives anywhere — and exits once the
   queue is closed and a full scan comes up empty. *)
let worker t wid () =
  let fairq = t.fairq and deques = t.deques in
  let mine = deques.(wid) in
  let kick () = Fairq.kick fairq in
  let n = Array.length deques in
  let steal_round () =
    let rec go i =
      if i >= n - 1 then None
      else
        match Deque.steal deques.((wid + 1 + i) mod n) with
        | Some w ->
          Cs_obs.Metrics.incr t.meters.Meters.steals;
          Some w
        | None -> go (i + 1)
    in
    go 0
  in
  let next () =
    match Deque.pop mine with
    | Some w -> Some w
    | None ->
      (match Squeue.try_pop t.overflow with
      | Some w -> Some w
      | None ->
        (match Fairq.try_pull fairq with
        | Some w -> Some w
        | None -> steal_round ()))
  in
  let rec loop () =
    let seen = Fairq.stamp fairq in
    match next () with
    | Some w ->
      execute t ~deque:mine ~kick w;
      loop ()
    | None ->
      if Fairq.closed fairq then ()
      else begin
        Fairq.wait fairq ~seen;
        loop ()
      end
  in
  loop ()

(* One request line from a client. Requests are admitted (or shed) as
   they arrive; the reader never waits for replies, so a client can
   pipeline a whole batch. Control lines (ping and stats) are answered
   inline, bypassing the queue: a health probe must get through even
   when the admission queue is full. *)
let handle_line t conn line =
  let shed_reply conn (request : Proto.request) reason =
    Cs_obs.Metrics.incr t.meters.Meters.shed;
    Cs_obs.Metrics.incr
      (Meters.tenant_counter t.meters ~tenant:(tenant_of request)
         ~outcome:"shed");
    send_reply conn
      (Proto.refused ~id:request.Proto.id (Cs_resil.Error.Overloaded reason));
    Conn.job_done conn
  in
  let admit_ok (request : Proto.request) lane =
    Cs_obs.Metrics.incr t.meters.Meters.admitted;
    Cs_obs.Metrics.incr
      (Meters.tenant_counter t.meters ~tenant:(tenant_of request)
         ~outcome:"admitted");
    Cs_obs.Metrics.incr
      (Meters.lane_counter t.meters ~lane:(Fairq.lane_name lane));
    sync_gauges t
  in
  let line = String.trim line in
  if line <> "" then begin
    match Proto.incoming_of_line line with
    | Error e ->
      Cs_obs.Metrics.incr t.meters.Meters.refused;
      send_reply conn
        (Proto.refused ~id:"" (Cs_resil.Error.Invalid_input e))
    | Ok (Proto.Control { op = Proto.Metrics_query format; id }) ->
      sync_gauges t;
      Conn.send_line conn
        (Proto.metrics_reply_to_line ~id (Meters.metrics_payload t.meters format))
    | Ok (Proto.Control { op; id }) ->
      let s = server_stats t in
      (match op with
      | Proto.Stats_query ->
        Cs_obs.Obs.counter ~cat:"svc" "server:stats"
          [ ("queue_depth", float_of_int s.Proto.queue_depth);
            ("busy", float_of_int s.Proto.busy);
            ("admitted", float_of_int s.Proto.admitted);
            ("completed", float_of_int s.Proto.completed);
            ("shed", float_of_int s.Proto.shed);
            ("refusals", float_of_int s.Proto.refusals) ]
      | Proto.Ping | Proto.Metrics_query _ -> ());
      Conn.send_line conn (Proto.pong_to_line ~id s)
    | Ok (Proto.Heartbeat _) ->
      (* shards push heartbeats, they don't receive them; tolerate
         and ignore so a misdirected sender can't wedge the reader *)
      ()
    | Ok (Proto.Job_request request) ->
      let job = Job.admit ?default_deadline_ms:t.cfg.default_deadline_ms request in
      Conn.add_pending conn;
      let w = { job; on = conn; agg = None } in
      if Conn.stopping t.listener then
        shed_reply conn request "server is draining"
      else begin
        let tenant = tenant_of request and lane = lane_of job in
        match Fairq.admit t.fairq ~tenant ~lane w with
        | Fairq.Admitted -> admit_ok request lane
        | Fairq.Queue_full ->
          shed_reply conn request
            (Printf.sprintf "admission queue full (%d jobs)"
               t.cfg.queue_capacity)
        | Fairq.Over_quota ->
          Cs_obs.Metrics.incr t.quota_meter;
          Cs_obs.Metrics.incr t.meters.Meters.refused;
          Cs_obs.Metrics.incr
            (Meters.tenant_counter t.meters ~tenant ~outcome:"quota");
          send_reply conn
            (Proto.refused ~id:request.Proto.id
               (Cs_resil.Error.Quota_exceeded
                  (Printf.sprintf
                     "tenant %S is over its admission quota (%d queued jobs)"
                     tenant
                     (if t.cfg.tenant_quota > 0 then t.cfg.tenant_quota
                      else t.cfg.queue_capacity))));
          Conn.job_done conn
      end
  end

let stop t =
  if Conn.stop t.listener then Cs_obs.Obs.instant ~cat:"svc" "server:stop"

let abort t =
  if not (Atomic.exchange t.aborted true) then begin
    Cs_obs.Obs.instant ~cat:"svc" "server:abort";
    (* Crash simulation for chaos drills: sever every open connection
       without replying (in-flight jobs vanish from the clients' point
       of view, exactly like a SIGKILL), discard queued work, and tear
       down. *)
    Conn.sever_all t.listener;
    stop t
  end

(* Push heartbeats: a persistent connection to the gateway carrying
   this shard's load vector once per period. The line names the shard
   by its advertised address (what the gateway was configured with),
   not the connection's source address. Fire-and-forget: no replies to
   read, and a dead gateway just means reconnect attempts once per
   period until it returns. *)
let heartbeat_loop t addr =
  let name =
    match t.cfg.advertise with
    | Some n -> n
    | None -> Transport.to_string (address t)
  in
  let period = Float.max 0.05 t.cfg.heartbeat_period_s in
  let stopping () = Conn.stopping t.listener in
  let line () =
    Proto.heartbeat_line
      { Proto.hb_shard = name;
        hb_depth = queue_depth t;
        hb_busy = Atomic.get t.n_busy;
        hb_workers = t.cfg.workers;
        hb_completed = Cs_obs.Metrics.counter_value t.meters.Meters.completed }
  in
  let rec connected fd =
    if stopping () then (try Unix.close fd with Unix.Unix_error _ -> ())
    else
      match Conn.write_all fd (line () ^ "\n") with
      | () ->
        Conn.sleep t.listener period;
        connected fd
      | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Conn.sleep t.listener period;
        reconnect ()
  and reconnect () =
    if not (stopping ()) then
      match Transport.connect addr with
      | fd -> connected fd
      | exception Unix.Unix_error _ ->
        Conn.sleep t.listener period;
        reconnect ()
  in
  reconnect ()

let run t =
  let workers = List.init t.cfg.workers (fun wid -> Domain.spawn (worker t wid)) in
  let heartbeater =
    Option.map
      (fun addr -> Domain.spawn (fun () -> heartbeat_loop t addr))
      t.cfg.heartbeat_addr
  in
  let addr = Transport.to_string (address t) in
  Cs_obs.Obs.instant ~cat:"svc"
    ~args:
      [ ("addr", Cs_obs.Obs.Str addr);
        ("workers", Cs_obs.Obs.Int t.cfg.workers);
        ("queue", Cs_obs.Obs.Int t.cfg.queue_capacity) ]
    "server:listen";
  (* Self-announcement for merged traces: Export.chrome_merged names
     this process's lane from it. *)
  Cs_obs.Obs.instant ~cat:"meta"
    ~args:[ ("role", Cs_obs.Obs.Str "shard"); ("addr", Cs_obs.Obs.Str addr) ]
    "process";
  Conn.serve t.listener (handle_line t);
  (* Graceful drain: no new connections, the open ones read to EOF,
     then answer every admitted job and tear down. (After [abort] the
     readers exit on their severed sockets and queued jobs are
     discarded unanswered instead.) *)
  Squeue.close t.overflow;
  Fairq.close t.fairq;
  List.iter Domain.join workers;
  Option.iter Domain.join heartbeater;
  Conn.close t.listener;
  let s = stats t in
  Cs_obs.Obs.counter ~cat:"svc" "server:drained"
    [ ("admitted", float_of_int s.admitted);
      ("completed", float_of_int s.completed);
      ("shed", float_of_int s.shed);
      ("refused", float_of_int s.refused) ]
