(* Overload experiment (extension): does the service core survive more
   load than it can serve? Three parts, all against real loopback-TCP
   servers running the same code path as `csched serve`:

   1. Closed-loop capacity. Pipelined clients keep every worker busy;
      jobs/sec is measured per worker count. The acceptance bar is
      >= 0.7x linear scaling from 1 worker to all available cores
      (trivially 1.0 on a single-core box).

   2. Open-loop overload. A paced generator offers 0.5x and then 2x
      the measured capacity at a server with a small queue, brownout
      enabled, and a 20% interactive / 80% batch class mix. The
      interactive-lane p99 at 2x must stay within 5x of the 0.5x p99:
      the lane split keeps interactive jobs ahead of the batch backlog
      and brownout tightens pass budgets before anything interactive
      is shed.

   3. Tenant isolation. One tenant saturates the server with batch
      jobs under a per-tenant quota while a second tenant trickles
      interactive jobs. The bar: the saturating tenant draws typed
      quota refusals, the interactive tenant is never shed.

   Duration per load point comes from BENCH_SERVE_SECS (default 4;
   CI sets 20). Machine-readable output lands in BENCH_serve.json
   (written atomically; CI parses it). *)

(* At least 1 s. Only finite values count: inf would never end the
   closed loop and nan would write NaN rates, so both fall back to the
   default, like text that is not a number. *)
let duration_s =
  match Option.bind (Sys.getenv_opt "BENCH_SERVE_SECS") float_of_string_opt with
  | Some x when Float.is_finite x -> Float.max 1.0 x
  | _ -> 4.0

let cores = Domain.recommended_domain_count ()

let with_server cfg f =
  let server = Cs_svc.Server.create cfg in
  let domain = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Cs_svc.Server.stop server;
      Domain.join domain)
    (fun () -> f server (Cs_svc.Server.address server))

(* Job class rides in the id prefix ("i-" / "b-") so replies, which
   echo the request id, can be split back into lanes afterwards. *)
let job ?tenant ?job_class ~prefix i =
  Cs_svc.Proto.request
    ~id:(Printf.sprintf "%s%d" prefix i)
    ~machine:"raw4" ?tenant ?job_class "fir"

let submit ~addr jobs =
  match Cs_svc.Client.submit ~timeout_s:300.0 ~addr jobs with
  | Ok replies -> replies
  | Error e -> failwith ("serve bench submit failed: " ^ e)

let is_scheduled (r : Cs_svc.Proto.reply) =
  match r.Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled _ -> true
  | Cs_svc.Proto.Refused _ -> false

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- part 1: closed-loop capacity ---------------------------------- *)

type capacity_cell = { workers : int; jobs_per_s : float }

let closed_loop_throughput ~workers =
  let cfg = Cs_svc.Server.config ~workers ~queue_capacity:64 "127.0.0.1:0" in
  with_server cfg (fun _ addr ->
      let t0 = Unix.gettimeofday () in
      let stop_at = t0 +. duration_s in
      let clients =
        List.init workers (fun c ->
            Domain.spawn (fun () ->
                let count = ref 0 and batch = ref 0 in
                while Unix.gettimeofday () < stop_at do
                  let jobs =
                    List.init 8
                      (job ~prefix:(Printf.sprintf "cap%d-%d-" c !batch))
                  in
                  incr batch;
                  count :=
                    !count + List.length (List.filter is_scheduled (submit ~addr jobs))
                done;
                !count))
      in
      let total = List.fold_left (fun a d -> a + Domain.join d) 0 clients in
      let elapsed = Float.max (Unix.gettimeofday () -. t0) duration_s in
      float_of_int total /. elapsed)

let capacity_experiment () =
  Report.subsection "closed-loop capacity";
  let table = Cs_util.Table.create ~header:[ "workers"; "jobs/s"; "vs linear" ] in
  let cells =
    List.map
      (fun workers -> { workers; jobs_per_s = closed_loop_throughput ~workers })
      (List.sort_uniq compare [ 1; cores ])
  in
  let vs_linear c =
    c.jobs_per_s
    /. Float.max ((List.hd cells).jobs_per_s *. float_of_int c.workers) 1e-9
  in
  List.iter
    (fun c ->
      Cs_util.Table.add_row table
        [ string_of_int c.workers;
          Printf.sprintf "%.0f" c.jobs_per_s;
          Printf.sprintf "%.2fx" (vs_linear c) ])
    cells;
  Cs_util.Table.print table;
  let top = List.nth cells (List.length cells - 1) in
  let scaling = vs_linear top in
  Printf.printf "scaling to %d core%s: %.2fx of linear%s\n" cores
    (if cores = 1 then "" else "s")
    scaling
    (if scaling >= 0.7 then "" else "  WARNING: below the 0.7x bar");
  let json =
    Cs_obs.Json.Obj
      [ ("scaling_fraction", Cs_obs.Json.Num scaling);
        ("cores", Cs_obs.Json.Num (float_of_int cores));
        ("cells",
         Cs_obs.Json.List
           (List.map
              (fun c ->
                Cs_obs.Json.Obj
                  [ ("workers", Cs_obs.Json.Num (float_of_int c.workers));
                    ("jobs_per_s", Cs_obs.Json.Num c.jobs_per_s) ])
              cells)) ]
  in
  (json, top.jobs_per_s)

(* --- part 2: open-loop overload ------------------------------------ *)

(* Paced generator: [senders] domains each offer [rate / senders]
   jobs/sec in 50 ms batches, every 5th job interactive-class. A
   blocking submit can slip behind the schedule under overload (the
   pacing loop then runs flat out), so the achieved offered count is
   reported next to the target rate. *)
let offer_load ~addr ~rate =
  let senders = 2 in
  let tick_s = 0.05 in
  let stop_at = Unix.gettimeofday () +. duration_s in
  let domains =
    List.init senders (fun s ->
        Domain.spawn (fun () ->
            let per_tick = rate *. tick_s /. float_of_int senders in
            let acc = ref 0.0 and batch = ref 0 and replies = ref [] in
            let next = ref (Unix.gettimeofday ()) in
            while Unix.gettimeofday () < stop_at do
              let now = Unix.gettimeofday () in
              if now < !next then Unix.sleepf (!next -. now);
              next := !next +. tick_s;
              acc := !acc +. per_tick;
              let n = int_of_float !acc in
              acc := !acc -. float_of_int n;
              if n > 0 then begin
                let jobs =
                  List.init n (fun i ->
                      let interactive = (i + !batch) mod 5 = 0 in
                      job ~tenant:"ol"
                        ~job_class:(if interactive then "interactive" else "batch")
                        ~prefix:
                          (Printf.sprintf "%s-%d-%d-"
                             (if interactive then "i" else "b")
                             s !batch)
                        i)
                in
                incr batch;
                replies := submit ~addr jobs :: !replies
              end
            done;
            List.concat !replies))
  in
  List.concat_map Domain.join domains

type load_cell = {
  factor : float;
  target_rate : float;
  offered : int;
  inter_jobs : int;
  inter_p50 : float;
  inter_p99 : float;
  inter_shed : int;
  shed : int;
  brownout_level : float;
}

let measure_load ~capacity ~factor =
  let cfg =
    Cs_svc.Server.config ~workers:cores ~queue_capacity:32
      ~brownout:Cs_svc.Brownout.default "127.0.0.1:0"
  in
  with_server cfg (fun server addr ->
      let rate = Float.max 8.0 (capacity *. factor) in
      let replies = offer_load ~addr ~rate in
      let inter =
        List.filter
          (fun r -> has_prefix ~prefix:"i-" r.Cs_svc.Proto.reply_id)
          replies
      in
      let inter_ok, inter_refused = List.partition is_scheduled inter in
      let q =
        Report.latency_quantiles
          (List.map (fun r -> r.Cs_svc.Proto.elapsed_ms) inter_ok)
      in
      let stats = Cs_svc.Server.stats server in
      let extra = (Cs_svc.Server.server_stats server).Cs_svc.Proto.extra in
      let level = try List.assoc "brownout_level" extra with Not_found -> 0.0 in
      { factor;
        target_rate = rate;
        offered = List.length replies;
        inter_jobs = List.length inter;
        inter_p50 = q 50.0;
        inter_p99 = q 99.0;
        inter_shed = List.length inter_refused;
        shed = stats.Cs_svc.Server.shed;
        brownout_level = level })

let overload_experiment ~capacity =
  Report.subsection "open-loop overload, interactive-lane p99";
  let cells =
    List.map (fun factor -> measure_load ~capacity ~factor) [ 0.5; 2.0 ]
  in
  let table =
    Cs_util.Table.create
      ~header:
        [ "load"; "target/s"; "offered"; "inter"; "p50_ms"; "p99_ms"; "i-shed";
          "shed"; "brownout" ]
  in
  List.iter
    (fun c ->
      Cs_util.Table.add_row table
        [ Printf.sprintf "%.1fx" c.factor;
          Printf.sprintf "%.0f" c.target_rate;
          string_of_int c.offered; string_of_int c.inter_jobs;
          Report.fl c.inter_p50; Report.fl c.inter_p99;
          string_of_int c.inter_shed; string_of_int c.shed;
          Printf.sprintf "%.0f" c.brownout_level ])
    cells;
  Cs_util.Table.print table;
  let half = List.hd cells and double = List.nth cells 1 in
  let ratio =
    if half.inter_p99 > 0.0 then double.inter_p99 /. half.inter_p99 else 0.0
  in
  Printf.printf "interactive p99 at 2x load: %.1fx the 0.5x-load p99%s\n" ratio
    (if ratio <= 5.0 then "" else "  WARNING: above the 5x degradation bar");
  let cell_json c =
    Cs_obs.Json.Obj
      [ ("factor", Cs_obs.Json.Num c.factor);
        ("target_rate", Cs_obs.Json.Num c.target_rate);
        ("offered", Cs_obs.Json.Num (float_of_int c.offered));
        ("interactive_jobs", Cs_obs.Json.Num (float_of_int c.inter_jobs));
        ("interactive_p50_ms", Cs_obs.Json.Num c.inter_p50);
        ("interactive_p99_ms", Cs_obs.Json.Num c.inter_p99);
        ("interactive_shed", Cs_obs.Json.Num (float_of_int c.inter_shed));
        ("shed", Cs_obs.Json.Num (float_of_int c.shed));
        ("brownout_level", Cs_obs.Json.Num c.brownout_level) ]
  in
  Cs_obs.Json.Obj
    [ ("p99_ratio", Cs_obs.Json.Num ratio);
      ("half_load", cell_json half);
      ("double_load", cell_json double) ]

(* --- part 3: tenant isolation -------------------------------------- *)

let isolation_experiment () =
  Report.subsection "tenant isolation under a saturating batch tenant";
  let cfg =
    Cs_svc.Server.config ~workers:cores ~queue_capacity:16 ~tenant_quota:4
      "127.0.0.1:0"
  in
  with_server cfg (fun server addr ->
      let stop_at = Unix.gettimeofday () +. duration_s in
      let flood =
        Domain.spawn (fun () ->
            let batch = ref 0 and refused = ref 0 and sent = ref 0 in
            while Unix.gettimeofday () < stop_at do
              let jobs =
                List.init 16
                  (job ~tenant:"bulk" ~job_class:"batch"
                     ~prefix:(Printf.sprintf "bulk-%d-" !batch))
              in
              incr batch;
              sent := !sent + 16;
              refused :=
                !refused
                + List.length
                    (List.filter (fun r -> not (is_scheduled r)) (submit ~addr jobs))
            done;
            (!sent, !refused))
      in
      let fg_replies = ref [] in
      while Unix.gettimeofday () < stop_at do
        let r =
          submit ~addr
            [ job ~tenant:"fg" ~job_class:"interactive"
                ~prefix:(Printf.sprintf "fg-%d-" (List.length !fg_replies))
                0 ]
        in
        fg_replies := r @ !fg_replies;
        Unix.sleepf 0.1
      done;
      let bulk_sent, bulk_refused = Domain.join flood in
      let fg_jobs = List.length !fg_replies in
      let fg_shed =
        List.length (List.filter (fun r -> not (is_scheduled r)) !fg_replies)
      in
      let stats = Cs_svc.Server.stats server in
      Printf.printf
        "bulk: %d offered, %d refused (%d by quota) — fg: %d jobs, %d shed%s\n"
        bulk_sent bulk_refused stats.Cs_svc.Server.quota_refused fg_jobs fg_shed
        (if fg_shed = 0 then "" else "  WARNING: interactive tenant was shed");
      Cs_obs.Json.Obj
        [ ("bulk_offered", Cs_obs.Json.Num (float_of_int bulk_sent));
          ("bulk_refused", Cs_obs.Json.Num (float_of_int bulk_refused));
          ("quota_refused",
           Cs_obs.Json.Num (float_of_int stats.Cs_svc.Server.quota_refused));
          ("fg_jobs", Cs_obs.Json.Num (float_of_int fg_jobs));
          ("fg_shed", Cs_obs.Json.Num (float_of_int fg_shed)) ])

(* --- driver -------------------------------------------------------- *)

let serve () =
  Report.section "Overload: lanes, fair admission, brownout (extension)";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "%d core%s, %.0f s per load point (BENCH_SERVE_SECS)\n" cores
    (if cores = 1 then "" else "s")
    duration_s;
  let capacity_json, capacity = capacity_experiment () in
  let overload_json = overload_experiment ~capacity in
  let isolation_json = isolation_experiment () in
  let json =
    Cs_obs.Json.Obj
      [ ("experiment", Cs_obs.Json.Str "serve");
        ("duration_s", Cs_obs.Json.Num duration_s);
        ("capacity", capacity_json);
        ("overload", overload_json);
        ("isolation", isolation_json) ]
  in
  Cs_util.Fsio.write_atomic ~path:"BENCH_serve.json"
    (Cs_obs.Json.to_string json ^ "\n");
  Printf.printf "\nwrote BENCH_serve.json\n"
