(* The service stage of a traced run: a journaled [csched gateway] over
   two [csched serve --workers 1] shards, all child processes on
   loopback TCP, driven by an open-loop sender on two long-lived
   connections. Fresh traffic (every job a cache miss) takes the whole
   service path; repeat traffic (every job a cache hit) only the
   gateway's decode, key, lookup and encode. *)

module Proto = Cs_svc.Proto
module Metrics = Cs_obs.Metrics

let now = Cs_obs.Clock.now

type fleet = { gateway : Proc.t; shards : Proc.t list }

let addr (p : Proc.t) = Cs_svc.Transport.parse_exn p.Proc.addr

let ping (p : Proc.t) =
  let stop = now () +. 30.0 in
  let rec go () =
    match Cs_svc.Client.fetch_stats ~timeout_s:5.0 ~addr:(addr p) () with
    | Ok _ -> ()
    | Error e when now () > stop -> failwith ("no answer to ping from " ^ p.addr ^ ": " ^ e)
    | Error _ ->
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let stop_fleet f = List.iter (fun p -> Proc.stop p) (f.gateway :: f.shards)

(* Spawn until every process answers a ping. *)
let spawn_fleet ~csched ~journal =
  let started = ref [] in
  let spawn args =
    let p = Proc.spawn csched args in
    started := p :: !started;
    p
  in
  try
    let serve () = spawn [ "serve"; "--listen"; "127.0.0.1:0"; "--workers"; "1" ] in
    let s1 = serve () in
    let s2 = serve () in
    let gateway =
      spawn
        [ "gateway"; "--listen"; "127.0.0.1:0"; "--shards"; s1.addr ^ "," ^ s2.addr;
          "--journal"; journal ]
    in
    let f = { gateway; shards = [ s1; s2 ] } in
    List.iter ping (gateway :: f.shards);
    f
  with e ->
    List.iter (fun p -> Proc.stop p) !started;
    raise e

(* --- open-loop sender ------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable pending : string; mutable eof : bool }

type run = {
  due : int -> float;
  sent : float array;
  got : float array;
  replies : Proto.reply option array;
}

(* Job [i] is written at its due time on connection [i mod 2], whatever
   is still in flight; replies are matched by id as they arrive. One
   thread, one [select] loop: it sleeps until the next due time or the
   next reply. *)
let open_loop f ~rate (requests : Proto.request array) =
  let n = Array.length requests in
  let conns =
    Array.init 2 (fun _ -> { fd = Cs_svc.Transport.connect (addr f.gateway); pending = ""; eof = false })
  in
  let index = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index r.Proto.id i) requests;
  let lines = Array.map (fun r -> Bytes.of_string (Proto.request_to_line r ^ "\n")) requests in
  let sent = Array.make n Float.nan and got = Array.make n Float.nan in
  let replies = Array.make n None in
  let received = ref 0 and next = ref 0 in
  let t0 = now () +. 0.01 in
  let due i = Benchlib.due ~t0 ~rate i in
  let hard_stop = due n +. 60.0 in
  let chunk = Bytes.create 65536 in
  let on_line line =
    match Proto.reply_of_line line with
    | Ok r -> (
      match Hashtbl.find_opt index r.Proto.reply_id with
      | Some i when replies.(i) = None ->
        got.(i) <- now ();
        replies.(i) <- Some r;
        incr received
      | _ -> ())
    | Error _ -> ()
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.eof <- true
    | k ->
      let parts = String.split_on_char '\n' (c.pending ^ Bytes.sub_string chunk 0 k) in
      let rec go = function
        | [] -> ()
        | [ rest ] -> c.pending <- rest
        | line :: more ->
          on_line line;
          go more
      in
      go parts
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> c.eof <- true
  in
  let rec write_all c b off =
    if off < Bytes.length b then
      match Unix.write c.fd b off (Bytes.length b - off) with
      | k -> write_all c b (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all c b off
  in
  while !received < n && now () < hard_stop && Array.exists (fun c -> not c.eof) conns do
    let t = now () in
    while !next < n && due !next <= t do
      let c = conns.(!next land 1) in
      (try write_all c lines.(!next) 0 with Unix.Unix_error _ -> c.eof <- true);
      sent.(!next) <- now ();
      incr next
    done;
    let live = List.filter (fun c -> not c.eof) (Array.to_list conns) in
    let timeout = if !next < n then Float.max 0.0 (due !next -. now ()) else 0.1 in
    match Unix.select (List.map (fun c -> c.fd) live) [] [] timeout with
    | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then read c) live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  { due; sent; got; replies }

(* --- metrics snapshots ----------------------------------------------- *)

let snapshot (p : Proc.t) =
  match Cs_svc.Client.fetch_metrics ~timeout_s:10.0 ~addr:(addr p) () with
  | Ok (Proto.Snapshot s) -> s
  | Ok (Proto.Prom_text _) -> failwith "metrics verb answered text"
  | Error e -> failwith ("metrics from " ^ p.addr ^ ": " ^ e)

(* Counter total across every label set of [name]. *)
let count snap name =
  Metrics.fold_name snap name ~init:0 ~f:(fun acc _ e ->
      match e with Metrics.Counter_v n -> acc + n | _ -> acc)

(* One count per label set of [name]. *)
let counts snap name =
  Metrics.fold_name snap name ~init:[] ~f:(fun acc _ e ->
      match e with Metrics.Counter_v n -> n :: acc | _ -> acc)

let histo_quantile snap name p =
  match Metrics.find snap name with Some (Metrics.Histo_v h) -> Metrics.quantile h p | _ -> 0.0

(* --- the workload ---------------------------------------------------- *)

type kind = Fresh | Repeat

type plan = {
  working_set : Scen.t array;  (** distinct scenarios cached during set-up *)
  warm_jobs : Scen.t array;  (** open-loop warm-up at the workload's rate *)
  jobs : Scen.t array;  (** the timed jobs, in due order *)
}

(* Fresh: the VLIW suite on vliw4, job [i] with its own NOISE seed, so
   every job is a cache miss (warm-up jobs take seeds after the timed
   ones). Repeat: uniform draws from the 16 Table 1 scenarios, all
   cached during set-up. *)
let plan kind ~seed ~n ~n_warm =
  let rng = Cs_util.Rng.create seed in
  match kind with
  | Fresh ->
    let suite = Array.of_list (Scen.suite "vliw4") in
    Cs_util.Rng.shuffle rng suite;
    let k = Array.length suite in
    let job i = { (suite.(i mod k)) with Scen.seed = Some ((seed * 100_003) + i) } in
    { working_set = [||]; warm_jobs = Array.init n_warm (fun i -> job (n + i));
      jobs = Array.init n job }
  | Repeat ->
    let ws = Array.of_list (Scen.suite "raw16" @ Scen.suite "vliw4") in
    let draw _ = Cs_util.Rng.choose rng ws in
    let jobs = Array.init n draw in
    { working_set = ws; warm_jobs = Array.init n_warm draw; jobs }

let same_answer (a : Scen.answer) (b : Scen.answer) = a.cycles = b.cycles && a.transfers = b.transfers

let requests_of ~prefix scens =
  Array.mapi (fun i s -> Scen.request ~id:(Printf.sprintf "%s%d" prefix i) s) scens

(* Seconds of open-loop traffic before the window, so it starts on warm
   processes: fresh shards run their first jobs several times slower,
   which would put a start-up backlog into the window. *)
let warm_s = 2.0

(* The window is invalid when the sender wrote jobs later than this
   after their due time (p99): the load was then not the one asked for. *)
let late_limit_ms = 50.0

(* Spawn, cache the working set, then run the warm-up traffic. Returns
   the fleet and the working set's replies. *)
let setup ~csched ~scratch ~plan ~rate =
  let fleet = spawn_fleet ~csched ~journal:(Filename.concat scratch "journal") in
  match
    let ws = requests_of ~prefix:"ws" plan.working_set in
    let replies =
      match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(addr fleet.gateway) (Array.to_list ws) with
      | Ok replies -> replies
      | Error e -> failwith ("warming the cache: " ^ e)
    in
    let warm =
      Array.map
        (fun (r : Proto.request) ->
          match List.find_opt (fun (p : Proto.reply) -> p.Proto.reply_id = r.Proto.id) replies with
          | Some p -> p
          | None -> failwith ("no warm-up reply for " ^ r.Proto.id))
        ws
    in
    ignore (open_loop fleet ~rate (requests_of ~prefix:"w" plan.warm_jobs));
    warm
  with
  | warm -> (fleet, warm)
  | exception e ->
    stop_fleet fleet;
    raise e

(* [after - before], entry by entry: what the timed window added. *)
let window ~before after =
  List.map
    (fun (k, e) ->
      match (e, List.assoc_opt k before) with
      | Metrics.Counter_v a, Some (Metrics.Counter_v b) -> (k, Metrics.Counter_v (a - b))
      | Metrics.Histo_v a, Some (Metrics.Histo_v b) ->
        ( k,
          Metrics.Histo_v
            { Metrics.counts = Array.mapi (fun i c -> c - b.Metrics.counts.(i)) a.Metrics.counts;
              sum = a.sum -. b.sum } )
      | _ -> (k, e))
    after

let run kind ~csched ~scratch ~seed ~seconds ~rate =
  let n = Benchlib.n_jobs ~rate ~seconds in
  let plan = plan kind ~seed ~n ~n_warm:(Benchlib.n_jobs ~rate ~seconds:warm_s) in
  let f, warm = setup ~csched ~scratch ~plan ~rate in
  let requests = requests_of ~prefix:"j" plan.jobs in
  let run, gw, shards =
    Fun.protect
      ~finally:(fun () -> stop_fleet f)
      (fun () ->
        let fleet_snapshot () =
          (snapshot f.gateway, Metrics.merge_all (List.map snapshot f.shards))
        in
        let gw0, sh0 = fleet_snapshot () in
        let run = open_loop f ~rate requests in
        let gw1, sh1 = fleet_snapshot () in
        (run, window ~before:gw0 gw1, window ~before:sh0 sh1))
  in
  (* --- outputs, checked after the window ----------------------------- *)
  let problems = ref [] in
  let invalid fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let refs_of scens = Scen.references (Array.to_list scens) in
  let ws_refs = refs_of plan.working_set in
  let warm_answers =
    Array.mapi
      (fun i (reply : Proto.reply) ->
        match (Scen.answer_of_reply reply, ws_refs.(i)) with
        | Some a, Ok b when same_answer a b -> Some a
        | _ ->
          invalid "warm-up reply for %s differs from the in-process answer"
            (Scen.label plan.working_set.(i));
          None)
      warm
  in
  let expected =
    match kind with
    | Fresh -> Array.map (fun r -> Result.to_option r) (refs_of plan.jobs)
    | Repeat ->
      let find s =
        let rec go i = if plan.working_set.(i) == s then warm_answers.(i) else go (i + 1) in
        go 0
      in
      Array.map find plan.jobs
  in
  let ok =
    Array.mapi
      (fun i reply ->
        match (reply, expected.(i)) with
        | Some (r : Proto.reply), Some want -> (
          match Scen.answer_of_reply r with
          | Some a -> same_answer a want && (kind = Fresh || (r.Proto.cached && a = want))
          | None -> false)
        | _ -> false)
      run.replies
  in
  let failed = Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 ok in
  Array.iteri
    (fun i b ->
      if (not b) && failed <= 5 then
        Printf.eprintf "fleet: job %s (%s) answered wrongly or not at all\n%!"
          requests.(i).Proto.id (Scen.label plan.jobs.(i)))
    ok;
  (* accounting identity over the window *)
  let admitted = count gw "csched_jobs_admitted_total" and hits = count gw "csched_cache_hits_total" in
  let misses = count gw "csched_cache_misses_total" in
  let forwarded = count gw "csched_gateway_forwarded_total" in
  let refused = count gw "csched_jobs_refused_total" in
  if not (n = admitted && admitted = hits + forwarded + refused) then
    invalid "accounting: %d attempted, %d admitted, %d hits + %d forwarded + %d refused" n admitted
      hits forwarded refused;
  let answered = List.filter (fun i -> run.replies.(i) <> None) (List.init n Fun.id) in
  let late = List.map (fun i -> Benchlib.late_ms ~due:(run.due i) ~sent:run.sent.(i)) answered in
  let late_p99 =
    match Benchlib.percentile ~min_beyond:10 99.0 late with
    | Ok v -> v
    | Error e ->
      invalid "generator lateness p99: %s" e;
      Benchlib.pct 99.0 late
  in
  if late_p99 > late_limit_ms then
    invalid "generator ran late: p99 %.2f ms > %.1f ms" late_p99 late_limit_ms;
  List.iter (fun p -> Printf.eprintf "fleet: invalid run: %s\n%!" p) !problems;
  let m = Benchlib.metric in
  let metrics =
    (* jobs the gateway forwarded in the window: all fresh jobs, no
       repeat job (the shards are bypassed) *)
    let forwarded_jobs =
      List.filter_map
        (fun i ->
          match run.replies.(i) with
          | Some (r : Proto.reply) when not r.Proto.cached ->
            Some (((run.got.(i) -. run.sent.(i)) *. 1000.0) -. r.elapsed_ms, r.elapsed_ms)
          | _ -> None)
        answered
    in
    let hops = List.map fst forwarded_jobs and runs = List.map snd forwarded_jobs in
    let by_shard = counts gw "csched_gateway_forwarded_total" in
    (* max/min jobs per shard; 0 when nothing was forwarded *)
    let skew =
      let most = List.fold_left max 0 by_shard in
      if most = 0 then 0.0
      else float_of_int most /. float_of_int (max 1 (List.fold_left min most by_shard))
    in
    (* the window's own wire lines: its first 64 answered jobs *)
    let sample = List.filteri (fun k _ -> k < 64) answered in
    if sample = [] then failwith "no job was answered";
    Layers.service_metrics ~scratch
      ~requests:(Array.of_list (List.map (fun i -> requests.(i)) sample))
      ~replies:(Array.of_list (List.map (fun i -> Option.get run.replies.(i)) sample))
    @ [ m "gateway.hop_ms.p50" "ms" (Benchlib.median hops);
        m "shard.queue_wait_ms.p50" "ms" (histo_quantile shards "csched_queue_wait_ms" 50.0);
        m "shard.queue_wait_ms.p99" "ms" (histo_quantile shards "csched_queue_wait_ms" 99.0);
        m "shard.run_ms.p50" "ms" (Benchlib.pct 50.0 runs);
        m "shard.run_ms.p99" "ms" (Benchlib.pct 99.0 runs);
        m "shard.skew" "ratio" skew;
        m "cache.hit_frac" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        m "gateway.rerouted" "count" (float_of_int (count gw "csched_gateway_rerouted_total"));
        m "gateway.replayed" "count" (float_of_int (count gw "csched_gateway_replayed_total"));
        m "shed" "count"
          (float_of_int (count gw "csched_jobs_shed_total" + count shards "csched_jobs_shed_total"));
        m "shard.steals" "count" (float_of_int (count shards "csched_steals_total"));
        m "shard.splits" "count" (float_of_int (count shards "csched_splits_total"));
        m "gen.late_ms.p99" "ms" late_p99 ]
  in
  Printf.eprintf "fleet: %d jobs at %.0f/s, %d failed, %d invalidity problems\n%!" n rate failed
    (List.length !problems);
  (!problems = [] && failed = 0, n, failed, metrics)
