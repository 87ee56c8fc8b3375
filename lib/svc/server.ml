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
  tenant_quota : int;
  tenant_weights : (string * int) list;
  batch_share : int;
  brownout : Brownout.settings option;
}

let config ?(workers = 2) ?(queue_capacity = 16) ?default_deadline_ms
    ?pass_budget_s ?chaos_slow_ms ?retry ?heartbeat ?(heartbeat_period_s = 1.0)
    ?advertise ?(tenant_quota = 0) ?(tenant_weights = []) ?(batch_share = 4)
    ?brownout addr =
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
    heartbeat_period_s; advertise; tenant_quota; tenant_weights; batch_share;
    brownout }

type stats = {
  admitted : int;
  completed : int;
  shed : int;
  refused : int;
  quota_refused : int;
}

type work = {
  job : Job.t;
  on : Conn.conn;
}

type t = {
  cfg : config;
  listener : Conn.listener;
  fairq : work Fairq.t;
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
    brownout = Option.map Brownout.create cfg.brownout;
    aborted = Atomic.make false; meters;
    quota_meter =
      Cs_obs.Metrics.counter meters.Meters.registry
        ~help:"Jobs refused because their tenant was over quota"
        "csched_jobs_quota_refused_total";
    n_busy = Atomic.make 0 }

let address t = Conn.address t.listener
let meters t = t.meters

let queue_depth t = Fairq.length t.fairq

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
      ("queue_depth_peak", float_of_int (Fairq.peak t.fairq)) ]
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

(* --- execution ----------------------------------------------------- *)

(* Run one job under the current brownout level: each degradation
   level halves the effective pass budget, and levels > 0 impose a
   synthetic budget on jobs that carry none — quality traded for drain
   rate before anything is shed. *)
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

(* Final counters, SLO accounting, the reply (with queue-depth gossip
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

(* Queue-wait accounting (feeds the brownout signal) and the trace's
   queue span. *)
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

(* The whole job runs on this worker, so its reply is the schedule an
   in-process run of the same region gives. After an abort nobody can
   receive the reply, and burning worker time on it would only delay
   teardown. *)
let execute t w =
  if Atomic.get t.aborted then Conn.job_done w.on
  else begin
    observe_dequeue t w.job;
    Atomic.incr t.n_busy;
    sync_gauges t;
    let reply = run_job t w.job in
    Atomic.decr t.n_busy;
    finalize t w.on w.job reply
  end

let rec worker t () =
  match Fairq.pull t.fairq with
  | Some w ->
    execute t w;
    worker t ()
  | None -> ()

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
      let w = { job; on = conn } in
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
  let workers = List.init t.cfg.workers (fun _ -> Domain.spawn (worker t)) in
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
