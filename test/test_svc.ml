(* Time robustness and the batch service: anytime early exit,
   per-pass budgets, retry/backoff determinism, checkpoint/resume
   bit-identity, crash-safe writes, and an in-process serve/submit
   loopback. Everything here is bounded — no test may hang runtest. *)

let raw4 = Cs_machine.Raw.with_tiles 4
let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()

let region_of machine name =
  match Cs_workloads.Suite.find name with
  | Some e ->
    e.Cs_workloads.Suite.generate ~scale:1
      ~clusters:(Cs_machine.Machine.n_clusters machine) ()
  | None -> Alcotest.failf "missing benchmark %s" name

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- anytime driver ------------------------------------------------ *)

let test_expired_deadline_still_answers () =
  let region = region_of raw4 "jacobi" in
  let deadline = Cs_obs.Clock.now () -. 1.0 in
  match Cs_sim.Pipeline.schedule_resilient ~deadline ~machine:raw4 region with
  | Error e -> Alcotest.failf "expected anytime schedule, got %s" (Cs_resil.Error.to_string e)
  | Ok (sched, outcome) ->
    Alcotest.(check bool) "timed_out recorded" true outcome.Cs_resil.Outcome.timed_out;
    Alcotest.(check bool) "not healthy" false (Cs_resil.Outcome.healthy outcome);
    Alcotest.(check bool) "non-empty schedule" true
      (Cs_sched.Schedule.makespan sched > 0)

let test_expired_deadline_matches_first_pass_only () =
  (* The anytime exit truncates the sequence between passes; with an
     already-expired deadline exactly one pass runs, so the result must
     equal the one-pass run's. *)
  let region = region_of vliw4 "vvmul" in
  let passes = Cs_sim.Pipeline.default_passes ~machine:vliw4 in
  let full =
    Cs_core.Driver.run ~deadline:(Cs_obs.Clock.now () -. 1.0) ~machine:vliw4 region
      passes
  in
  Alcotest.(check bool) "timed_out" true full.Cs_core.Driver.timed_out;
  let one = Cs_core.Driver.run ~machine:vliw4 region [ List.hd passes ] in
  Alcotest.(check (array int)) "assignment = one-pass assignment"
    one.Cs_core.Driver.assignment full.Cs_core.Driver.assignment

let test_no_deadline_never_times_out () =
  let region = region_of raw4 "life" in
  let result =
    Cs_core.Driver.run ~machine:raw4 region (Cs_sim.Pipeline.default_passes ~machine:raw4)
  in
  Alcotest.(check bool) "timed_out" false result.Cs_core.Driver.timed_out

let test_pass_timeout_quarantined () =
  let region = region_of raw4 "sha" in
  let passes =
    Cs_sim.Pipeline.default_passes ~machine:raw4
    @ [ Cs_core.Chaos.slow_pass ~delay_ms:30.0 () ]
  in
  let result =
    Cs_core.Driver.run ~pass_budget_s:0.005 ~machine:raw4 region passes
  in
  let timeouts =
    List.filter
      (fun (s : Cs_core.Trace.step) ->
        s.pass_name = "CHAOS"
        && match s.quarantine with Some r -> contains r "pass-timeout" | None -> false)
      result.Cs_core.Driver.trace
  in
  Alcotest.(check int) "slow pass quarantined once" 1 (List.length timeouts);
  Alcotest.(check bool) "a budget overrun is not an anytime exit" false
    result.Cs_core.Driver.timed_out

let test_pass_timeout_surfaces_in_outcome () =
  let region = region_of raw4 "sha" in
  let passes =
    Cs_sim.Pipeline.default_passes ~machine:raw4
    @ [ Cs_core.Chaos.slow_pass ~delay_ms:30.0 () ]
  in
  match
    Cs_sim.Pipeline.schedule_resilient ~passes ~pass_budget_s:0.005 ~machine:raw4 region
  with
  | Error e -> Alcotest.failf "expected schedule, got %s" (Cs_resil.Error.to_string e)
  | Ok (_, outcome) ->
    Alcotest.(check bool) "quarantine visible to caller" true
      (List.exists
         (fun (name, reason) ->
           name = "CHAOS" && contains reason "pass-timeout")
         outcome.Cs_resil.Outcome.quarantined)

(* --- retry --------------------------------------------------------- *)

let test_retry_delays_deterministic () =
  let policy = { Cs_svc.Retry.default with max_attempts = 5; seed = 99 } in
  let a = Cs_svc.Retry.delays policy and b = Cs_svc.Retry.delays policy in
  Alcotest.(check int) "n delays" 4 (List.length a);
  Alcotest.(check (list (float 0.0))) "same policy, same schedule" a b;
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "delay %d in jitter band" i) true
        (let base = policy.base_delay_s *. (policy.multiplier ** float_of_int i) in
         d >= base *. 0.5 -. 1e-9 && d <= base *. 1.5 +. 1e-9))
    a

let test_retry_sleeps_recorded_schedule () =
  let policy = { Cs_svc.Retry.default with max_attempts = 3 } in
  let slept = ref [] in
  let calls = ref 0 in
  let result =
    Cs_svc.Retry.run ~policy
      ~sleep:(fun d -> slept := d :: !slept)
      (fun ~attempt ->
        incr calls;
        if attempt < 3 then Error (Cs_resil.Error.Pass_failure "flaky") else Ok attempt)
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check (list (float 0.0))) "slept the published schedule"
    (Cs_svc.Retry.delays policy) (List.rev !slept);
  match result with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "expected Ok on third attempt"

let test_retry_gives_up_and_skips_permanent () =
  let policy = { Cs_svc.Retry.default with max_attempts = 3 } in
  let no_sleep _ = () in
  let calls = ref 0 in
  (match
     Cs_svc.Retry.run ~policy ~sleep:no_sleep (fun ~attempt:_ ->
         incr calls;
         Error (Cs_resil.Error.Pass_failure "always"))
   with
  | Error (Cs_resil.Error.Pass_failure _) -> ()
  | _ -> Alcotest.fail "expected the last error back");
  Alcotest.(check int) "transient retried to exhaustion" 3 !calls;
  calls := 0;
  (match
     Cs_svc.Retry.run ~policy ~sleep:no_sleep (fun ~attempt:_ ->
         incr calls;
         Error (Cs_resil.Error.Infeasible "permanent"))
   with
  | Error (Cs_resil.Error.Infeasible _) -> ()
  | _ -> Alcotest.fail "expected the permanent error back");
  Alcotest.(check int) "permanent not retried" 1 !calls

(* --- crash-safe writes --------------------------------------------- *)

let test_fsio_atomic_write_roundtrip () =
  let path = tmp_path "cs_svc_fsio_test.txt" in
  Cs_util.Fsio.write_atomic ~path "first\n";
  Alcotest.(check (option string)) "written" (Some "first\n") (Cs_util.Fsio.read_opt path);
  Cs_util.Fsio.write_atomic ~path "second\n";
  Alcotest.(check (option string)) "overwritten" (Some "second\n")
    (Cs_util.Fsio.read_opt path);
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> base && contains f base)
  in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers;
  Sys.remove path;
  Alcotest.(check (option string)) "missing file reads None" None
    (Cs_util.Fsio.read_opt path)

(* --- GA checkpoint/resume ------------------------------------------ *)

let small_params =
  { Cs_tuner.Ga.default_params with population = 6; generations = 4; seed = 11 }

let small_fit () =
  match Cs_workloads.Suite.find "vvmul" with
  | Some e -> Cs_tuner.Fitness.make ~scale:1 ~machine:vliw4 [ e ]
  | None -> Alcotest.fail "vvmul missing"

let test_ga_resume_bit_identical () =
  let straight = Cs_tuner.Ga.run small_params (small_fit ()) in
  let snap = ref None in
  let _interrupted =
    (* capture the snapshot after generation 2, as a crash would *)
    Cs_tuner.Ga.run
      ~checkpoint:(fun s -> if s.Cs_tuner.Ga.gen_done = 2 then snap := Some s)
      small_params (small_fit ())
  in
  match !snap with
  | None -> Alcotest.fail "checkpoint callback never fired"
  | Some s ->
    let resumed = Cs_tuner.Ga.run ~resume:s small_params (small_fit ()) in
    Alcotest.(check string) "best genome bit-identical"
      (Cs_tuner.Genome.to_string straight.Cs_tuner.Ga.best)
      (Cs_tuner.Genome.to_string resumed.Cs_tuner.Ga.best);
    Alcotest.(check bool) "best fitness bit-identical" true
      (straight.Cs_tuner.Ga.best_fitness = resumed.Cs_tuner.Ga.best_fitness);
    Alcotest.(check (array (float 0.0))) "history bit-identical"
      straight.Cs_tuner.Ga.history resumed.Cs_tuner.Ga.history;
    Alcotest.(check bool) "resumed run completed" true resumed.Cs_tuner.Ga.completed

let test_ga_checkpoint_file_roundtrip () =
  let snap = ref None in
  let _ =
    Cs_tuner.Ga.run
      ~checkpoint:(fun s -> if s.Cs_tuner.Ga.gen_done = 2 then snap := Some s)
      small_params (small_fit ())
  in
  let s = Option.get !snap in
  let path = tmp_path "cs_svc_ga_ck.json" in
  Cs_tuner.Checkpoint.save ~path s;
  (match Cs_tuner.Checkpoint.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok s' ->
    Alcotest.(check int) "gen_done" s.Cs_tuner.Ga.gen_done s'.Cs_tuner.Ga.gen_done;
    Alcotest.(check bool) "rng state exact" true
      (Int64.equal s.Cs_tuner.Ga.rng_state s'.Cs_tuner.Ga.rng_state);
    Alcotest.(check bool) "best fitness exact" true
      (s.Cs_tuner.Ga.snap_best_fitness = s'.Cs_tuner.Ga.snap_best_fitness);
    Alcotest.(check (array string)) "population exact"
      (Array.map Cs_tuner.Genome.to_string s.Cs_tuner.Ga.population)
      (Array.map Cs_tuner.Genome.to_string s'.Cs_tuner.Ga.population);
    (* the loaded snapshot must continue exactly like the in-memory one *)
    let a = Cs_tuner.Ga.run ~resume:s small_params (small_fit ()) in
    let b = Cs_tuner.Ga.run ~resume:s' small_params (small_fit ()) in
    Alcotest.(check string) "continuations agree"
      (Cs_tuner.Genome.to_string a.Cs_tuner.Ga.best)
      (Cs_tuner.Genome.to_string b.Cs_tuner.Ga.best));
  Sys.remove path

let test_ga_deadline_reports_budget_exhausted () =
  let outcome =
    Cs_tuner.Ga.run ~deadline:(Cs_obs.Clock.now ()) small_params (small_fit ())
  in
  Alcotest.(check bool) "stopped early" true
    (outcome.Cs_tuner.Ga.generations_run < small_params.Cs_tuner.Ga.generations);
  Alcotest.(check bool) "not completed" false outcome.Cs_tuner.Ga.completed;
  Alcotest.(check bool) "still made progress" true
    (outcome.Cs_tuner.Ga.generations_run >= 1)

(* --- fuzz journal resume ------------------------------------------- *)

(* Sabotage every schedule so the oracle reliably produces findings. *)
let break_schedule s = Cs_sched.Schedule.map_clusters (fun _ -> 0) s

let test_fuzz_journal_resume_identical () =
  let seeds = (0, 30) in
  let path = tmp_path "cs_svc_fuzz_journal.json" in
  let run journal =
    Cs_check.Fuzz.run ~shrink:false ~transform:break_schedule ?journal ~seeds ()
  in
  let stats_fresh, found_fresh = run None in
  Alcotest.(check bool) "transform produces findings" true (found_fresh <> []);
  (* First journaled run covers everything; resuming it replays the
     journal without re-searching and must reproduce the findings. *)
  let j = Cs_check.Journal.create ~path ~seeds () in
  let stats_j, found_j = run (Some j) in
  Alcotest.(check int) "journaled run sees all cases" stats_fresh.Cs_check.Fuzz.cases
    stats_j.Cs_check.Fuzz.cases;
  let resumed = Cs_check.Journal.resume ~path ~seeds () in
  let stats_r, found_r = run (Some resumed) in
  Alcotest.(check int) "resumed covers all cases" stats_fresh.Cs_check.Fuzz.cases
    stats_r.Cs_check.Fuzz.cases;
  Alcotest.(check bool) "resumed run completed" true stats_r.Cs_check.Fuzz.completed;
  let sig_of f =
    Printf.sprintf "%d/%s/%s" f.Cs_check.Fuzz.seed f.Cs_check.Fuzz.label
      f.Cs_check.Fuzz.check
  in
  Alcotest.(check (list string)) "journaled findings identical"
    (List.map sig_of found_fresh) (List.map sig_of found_j);
  Alcotest.(check (list string)) "resumed findings identical"
    (List.map sig_of found_fresh) (List.map sig_of found_r);
  Sys.remove path

let test_fuzz_journal_mismatch_starts_fresh () =
  let path = tmp_path "cs_svc_fuzz_journal2.json" in
  let j = Cs_check.Journal.create ~path ~seeds:(0, 10) () in
  Cs_check.Journal.record j ~chunk:(0, 10) ~violations:[];
  (* different seed range -> the old journal must not poison the run *)
  let j' = Cs_check.Journal.resume ~path ~seeds:(0, 20) () in
  Alcotest.(check bool) "mismatched journal discarded" false
    (Cs_check.Journal.is_done j' 5);
  Sys.remove path

(* --- bounded queue ------------------------------------------------- *)

let test_squeue_bounds_and_order () =
  let q = Cs_svc.Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Cs_svc.Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Cs_svc.Squeue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Cs_svc.Squeue.try_push q 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Cs_svc.Squeue.pop q);
  Alcotest.(check bool) "slot freed" true (Cs_svc.Squeue.try_push q 4);
  Cs_svc.Squeue.close q;
  Alcotest.(check bool) "closed refuses" false (Cs_svc.Squeue.try_push q 5);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Cs_svc.Squeue.pop q);
  Alcotest.(check (option int)) "drain 4" (Some 4) (Cs_svc.Squeue.pop q);
  Alcotest.(check (option int)) "closed+empty ends" None (Cs_svc.Squeue.pop q)

let test_squeue_concurrent_producers_consumers () =
  let q = Cs_svc.Squeue.create ~capacity:4 in
  let produced = 200 in
  let seen = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Cs_svc.Squeue.pop q with
              | Some _ ->
                Atomic.incr seen;
                loop ()
              | None -> ()
            in
            loop ()))
  in
  let rec push n =
    if n > 0 then
      if Cs_svc.Squeue.try_push q n then push (n - 1)
      else begin
        Domain.cpu_relax ();
        push n
      end
  in
  push produced;
  Cs_svc.Squeue.close q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "every item consumed exactly once" produced (Atomic.get seen)

(* The shed bound must hold exactly under racing producers: with no
   consumer, precisely [capacity] of the competing pushes may win, no
   matter how the domains interleave. *)
let test_squeue_sheds_at_exact_capacity_concurrently () =
  let capacity = 8 in
  let producers = 4 and per_producer = 50 in
  let q = Cs_svc.Squeue.create ~capacity in
  let accepted = Atomic.make 0 in
  let go = Atomic.make false in
  let domains =
    List.init producers (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for i = 0 to per_producer - 1 do
              if Cs_svc.Squeue.try_push q ((d * per_producer) + i) then
                Atomic.incr accepted
            done))
  in
  Atomic.set go true;
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly capacity pushes won" capacity (Atomic.get accepted);
  Alcotest.(check int) "queue holds exactly capacity" capacity (Cs_svc.Squeue.length q);
  Cs_svc.Squeue.close q;
  let drained = ref 0 in
  let rec drain () =
    match Cs_svc.Squeue.pop q with
    | Some _ ->
      incr drained;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "winners all drain back out" capacity !drained

(* --- transport addresses ------------------------------------------- *)

let test_transport_parse_edge_cases () =
  (* a colon without a numeric port is neither TCP nor a sane path *)
  (match Cs_svc.Transport.parse "host:" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing colon with no port must error");
  (match Cs_svc.Transport.parse "host:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative port must error");
  (* the LAST colon splits host from port, so colon-bearing hosts work *)
  (match Cs_svc.Transport.parse "::1:7100" with
  | Ok (Cs_svc.Transport.Tcp { host = "::1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "IPv6-ish host should split on the last colon");
  (* surrounding whitespace is operator noise, not address *)
  (match Cs_svc.Transport.parse "  127.0.0.1:7100  " with
  | Ok (Cs_svc.Transport.Tcp { host = "127.0.0.1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "whitespace should be trimmed");
  (match Cs_svc.Transport.parse "   " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-whitespace address must error")

let test_transport_port_zero_resolves () =
  (* port 0 asks the kernel for an ephemeral port; bound_addr must
     report the real one so clients can actually connect *)
  let addr = Cs_svc.Transport.parse_exn "127.0.0.1:0" in
  let fd = Cs_svc.Transport.listen addr in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Cs_svc.Transport.bound_addr fd addr with
      | Cs_svc.Transport.Tcp { port; _ } ->
        Alcotest.(check bool) "kernel-assigned port" true (port > 0)
      | Cs_svc.Transport.Unix_path _ -> Alcotest.fail "TCP bind stayed TCP")

(* --- protocol ------------------------------------------------------ *)

let test_proto_request_roundtrip () =
  let r =
    Cs_svc.Proto.request ~id:"j1" ~machine:"vliw4" ~scheduler:"uas" ~scale:2
      ~deadline_ms:50.0 ~passes:"INITTIME,PLACE" ~seed:7 "mxm"
  in
  match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check string) "id" r.Cs_svc.Proto.id r'.Cs_svc.Proto.id;
    Alcotest.(check string) "bench" r.Cs_svc.Proto.bench r'.Cs_svc.Proto.bench;
    Alcotest.(check string) "machine" r.Cs_svc.Proto.machine r'.Cs_svc.Proto.machine;
    Alcotest.(check int) "scale" r.Cs_svc.Proto.scale r'.Cs_svc.Proto.scale;
    Alcotest.(check (option (float 0.0))) "deadline" r.Cs_svc.Proto.deadline_ms
      r'.Cs_svc.Proto.deadline_ms;
    Alcotest.(check (option string)) "passes" r.Cs_svc.Proto.passes r'.Cs_svc.Proto.passes;
    Alcotest.(check (option int)) "seed" r.Cs_svc.Proto.seed r'.Cs_svc.Proto.seed

let test_proto_reply_roundtrip () =
  let ok =
    { Cs_svc.Proto.reply_id = "j1"; elapsed_ms = 12.5;
      verdict =
        Cs_svc.Proto.Scheduled
          { cycles = 42; transfers = 7; rung = "requested"; timed_out = true;
            quarantined = 1 };
      queue_depth = Some 3; cached = true }
  in
  (match Cs_svc.Proto.reply_of_line (Cs_svc.Proto.reply_to_line ok) with
  | Ok r when r = ok -> ()
  | Ok _ -> Alcotest.fail "ok reply mutated in roundtrip"
  | Error e -> Alcotest.failf "ok roundtrip failed: %s" e);
  let refused =
    Cs_svc.Proto.refused ~elapsed_ms:1.0 ~id:"j2"
      (Cs_resil.Error.Deadline_exceeded "too slow")
  in
  match Cs_svc.Proto.reply_of_line (Cs_svc.Proto.reply_to_line refused) with
  | Ok r when r = refused -> ()
  | Ok _ -> Alcotest.fail "refused reply mutated in roundtrip"
  | Error e -> Alcotest.failf "refused roundtrip failed: %s" e

let test_proto_idem_key_roundtrip () =
  let r = Cs_svc.Proto.request ~id:"j1" ~idem_key:"retry-abc" "fir" in
  (match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "idem_key survives the wire"
      (Some "retry-abc") r'.Cs_svc.Proto.idem_key);
  match
    Cs_svc.Proto.request_of_line
      (Cs_svc.Proto.request_to_line (Cs_svc.Proto.request ~id:"j2" "fir"))
  with
  | Error e -> Alcotest.failf "keyless roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "absent key stays absent" None
      r'.Cs_svc.Proto.idem_key

let test_proto_heartbeat_roundtrip () =
  let hb =
    { Cs_svc.Proto.hb_shard = "127.0.0.1:7040"; hb_depth = 3; hb_busy = 2;
      hb_workers = 4; hb_completed = 99 }
  in
  (match Cs_svc.Proto.incoming_of_line (Cs_svc.Proto.heartbeat_line hb) with
  | Ok (Cs_svc.Proto.Heartbeat hb') ->
    Alcotest.(check string) "shard" hb.Cs_svc.Proto.hb_shard hb'.Cs_svc.Proto.hb_shard;
    Alcotest.(check int) "depth" hb.Cs_svc.Proto.hb_depth hb'.Cs_svc.Proto.hb_depth;
    Alcotest.(check int) "busy" hb.Cs_svc.Proto.hb_busy hb'.Cs_svc.Proto.hb_busy;
    Alcotest.(check int) "workers" hb.Cs_svc.Proto.hb_workers
      hb'.Cs_svc.Proto.hb_workers;
    Alcotest.(check int) "completed" hb.Cs_svc.Proto.hb_completed
      hb'.Cs_svc.Proto.hb_completed
  | Ok _ -> Alcotest.fail "heartbeat line classified as something else"
  | Error e -> Alcotest.failf "heartbeat roundtrip failed: %s" e);
  (* forward compat: load-vector fields are optional, the shard name is not *)
  (match
     Cs_svc.Proto.incoming_of_line "{\"op\":\"heartbeat\",\"shard\":\"s1\"}"
   with
  | Ok (Cs_svc.Proto.Heartbeat hb') ->
    Alcotest.(check int) "missing depth defaults to 0" 0 hb'.Cs_svc.Proto.hb_depth
  | _ -> Alcotest.fail "minimal heartbeat should parse");
  match Cs_svc.Proto.incoming_of_line "{\"op\":\"heartbeat\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heartbeat without a shard name must be rejected"

let test_proto_malformed_line () =
  (match Cs_svc.Proto.request_of_line "{not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Cs_svc.Proto.request_of_line "{\"id\":\"x\"}" with
  | Error _ -> () (* bench missing *)
  | Ok _ -> Alcotest.fail "bench-less request accepted"

(* --- job runner ---------------------------------------------------- *)

let test_job_refusals_are_typed () =
  let run req = Cs_svc.Job.run (Cs_svc.Job.admit req) in
  (match (run (Cs_svc.Proto.request "no-such-bench")).Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "unknown bench kind" "invalid-input" e.kind
  | _ -> Alcotest.fail "unknown bench must refuse");
  (match
     (run (Cs_svc.Proto.request ~machine:"raw0" "jacobi")).Cs_svc.Proto.verdict
   with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "unknown machine kind" "invalid-input" e.kind
  | _ -> Alcotest.fail "unknown machine must refuse");
  (* A LEVEL stride that would never advance must be refused, not pin
     the worker forever; a PATHPROP blend_keep outside [0, 1] must be
     refused, not quarantine every application without a word. *)
  List.iter
    (fun passes ->
      match (run (Cs_svc.Proto.request ~passes "jacobi")).Cs_svc.Proto.verdict with
      | Cs_svc.Proto.Refused e -> Alcotest.(check string) passes "invalid-input" e.kind
      | _ -> Alcotest.failf "%s must refuse" passes)
    [ "INITTIME,LEVEL=stride=0"; "INITTIME,LEVEL=stride=nan"; "INITTIME,PATHPROP=blend_keep=2";
      "INITTIME,PATHPROP=blend_keep=-1" ];
  match
    (Cs_svc.Job.run (Cs_svc.Job.admit (Cs_svc.Proto.request ~deadline_ms:0.0 "jacobi")))
      .Cs_svc.Proto.verdict
  with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "expired-in-queue kind" "deadline-exceeded"
      e.kind
  | _ -> Alcotest.fail "expired deadline must refuse"

(* CHAOS stays out of requests: a mode 5 stall of 3 s under a 1 s
   deadline is refused as invalid input at once, never run (it would
   hold the worker 3 s and answer late); so is every other mode. *)
let test_job_refuses_chaos () =
  let t0 = Cs_obs.Clock.now () in
  let req =
    Cs_svc.Proto.request ~id:"chaos" ~machine:"vliw4" ~deadline_ms:1000.0
      ~passes:"INITTIME,CHAOS=mode=5:delay_ms=3000" "vvmul"
  in
  let reply = Cs_svc.Job.run (Cs_svc.Job.admit req) in
  let wall_ms = (Cs_obs.Clock.now () -. t0) *. 1000.0 in
  (match reply.Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e -> Alcotest.(check string) "stall refused" "invalid-input" e.kind
  | Cs_svc.Proto.Scheduled _ -> Alcotest.fail "a CHAOS stall must be refused");
  Alcotest.(check bool)
    (Printf.sprintf "answered within the deadline (%.1f ms)" wall_ms)
    true
    (wall_ms < 1000.0 && reply.Cs_svc.Proto.elapsed_ms < 1000.0);
  List.iter
    (fun passes ->
      match (Cs_svc.Job.run (Cs_svc.Job.admit (Cs_svc.Proto.request ~passes "jacobi"))).verdict with
      | Cs_svc.Proto.Refused e -> Alcotest.(check string) passes "invalid-input" e.kind
      | _ -> Alcotest.failf "%s must refuse" passes)
    [ "CHAOS"; "INITTIME,CHAOS=mode=0"; "INITTIME,COMM,CHAOS=mode=4" ];
  (* The server-side drill still reaches the sequence. *)
  match
    (Cs_svc.Job.run ~extra_passes:[ Cs_core.Chaos.slow_pass ~delay_ms:1.0 () ]
       (Cs_svc.Job.admit (Cs_svc.Proto.request ~machine:"vliw4" "vvmul")))
      .verdict
  with
  | Cs_svc.Proto.Scheduled _ -> ()
  | Cs_svc.Proto.Refused e -> Alcotest.failf "drill refused: %s" e.message

let test_job_schedules_with_deadline () =
  let req = Cs_svc.Proto.request ~id:"ok" ~machine:"raw4" ~deadline_ms:10_000.0 "sha" in
  match (Cs_svc.Job.run (Cs_svc.Job.admit req)).Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled s ->
    Alcotest.(check bool) "cycles positive" true (s.cycles > 0)
  | Cs_svc.Proto.Refused e ->
    Alcotest.failf "healthy job refused: %s %s" e.kind e.message

(* --- serve/submit loopback ----------------------------------------- *)

let with_server cfg f =
  let server = Cs_svc.Server.create cfg in
  let runner = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Cs_svc.Server.stop server;
      Domain.join runner)
    (fun () -> f server)

let test_serve_mixed_batch () =
  let socket = tmp_path (Printf.sprintf "cs_svc_test_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:2 ~queue_capacity:8 socket in
  let replies =
    with_server cfg (fun _ ->
        let jobs =
          [ Cs_svc.Proto.request ~id:"good" ~machine:"raw4" ~deadline_ms:30_000.0 "jacobi";
            Cs_svc.Proto.request ~id:"late" ~deadline_ms:0.0 "mxm";
            Cs_svc.Proto.request ~id:"bogus" "no-such-bench" ]
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> replies)
  in
  Alcotest.(check int) "every job answered" 3 (List.length replies);
  let find id =
    List.find (fun r -> r.Cs_svc.Proto.reply_id = id) replies
  in
  (match (find "good").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled s ->
    Alcotest.(check bool) "scheduled" true (s.cycles > 0)
  | Cs_svc.Proto.Refused e -> Alcotest.failf "good job refused: %s" e.message);
  (match (find "late").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "typed deadline refusal" "deadline-exceeded"
      e.kind
  | _ -> Alcotest.fail "impossible deadline must be refused");
  match (find "bogus").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "typed invalid-input refusal" "invalid-input"
      e.kind
  | _ -> Alcotest.fail "unknown bench must be refused"

let test_serve_sheds_when_overloaded () =
  let socket = tmp_path (Printf.sprintf "cs_svc_shed_%d.sock" (Unix.getpid ())) in
  (* one worker stalled 200 ms per job behind a one-slot queue: of six
     pipelined jobs at most two can be in flight, the rest must shed *)
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:1 ~chaos_slow_ms:200.0 socket
  in
  let replies, stats =
    with_server cfg (fun server ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "j%d" i) ~machine:"raw4"
                ~deadline_ms:30_000.0 "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> (replies, Cs_svc.Server.stats server))
  in
  Alcotest.(check int) "every job answered" 6 (List.length replies);
  let shed =
    List.filter
      (fun r ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Refused e -> e.kind = "overloaded"
        | _ -> false)
      replies
  in
  Alcotest.(check bool) "bounded queue shed typed refusals" true
    (List.length shed >= 3);
  Alcotest.(check int) "stats agree with replies" (List.length shed)
    stats.Cs_svc.Server.shed

let test_serve_metrics_verb () =
  let module M = Cs_obs.Metrics in
  let socket = tmp_path (Printf.sprintf "cs_svc_metrics_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:2 socket in
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      let jobs =
        List.init 3 (fun i ->
            Cs_svc.Proto.request ~id:(Printf.sprintf "m%d" i) ~machine:"raw4" ~seed:i
              "fir")
      in
      (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
      | Ok rs -> Alcotest.(check int) "all answered" 3 (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      (match Cs_svc.Client.fetch_metrics ~addr () with
      | Error e -> Alcotest.failf "metrics verb failed: %s" e
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        let counter name =
          match M.find snap name with Some (M.Counter_v v) -> v | _ -> -1
        in
        Alcotest.(check int) "admitted counter" 3 (counter "csched_jobs_admitted_total");
        Alcotest.(check int) "completed counter" 3
          (counter "csched_jobs_completed_total");
        Alcotest.(check int) "no refusals" 0 (counter "csched_jobs_refused_total");
        (match M.find snap "csched_workers" with
        | Some (M.Gauge_v v) -> Alcotest.(check bool) "workers gauge" true (v = 2.0)
        | _ -> Alcotest.fail "workers gauge missing");
        match M.find snap "csched_job_latency_ms" with
        | Some (M.Histo_v h) ->
          Alcotest.(check int) "one latency sample per job" 3 (M.total h);
          Alcotest.(check bool) "p99 estimate positive" true (M.quantile h 99.0 > 0.0)
        | _ -> Alcotest.fail "latency histogram missing");
      match Cs_svc.Client.fetch_metrics ~format:Cs_svc.Proto.Metrics_prometheus ~addr ()
      with
      | Ok (Cs_svc.Proto.Prom_text text) ->
        Alcotest.(check bool) "prometheus rendering carries the counter" true
          (List.mem "csched_jobs_admitted_total 3" (String.split_on_char '\n' text))
      | Ok (Cs_svc.Proto.Snapshot _) -> Alcotest.fail "asked for prometheus, got json"
      | Error e -> Alcotest.failf "prometheus fetch failed: %s" e)

let test_serve_stop_is_clean_and_idempotent () =
  let socket = tmp_path (Printf.sprintf "cs_svc_stop_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:1 socket in
  with_server cfg (fun server ->
      (* submit one job so drain has something to finish *)
      (match
         Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Cs_svc.Transport.parse_exn socket)
           [ Cs_svc.Proto.request ~id:"x" ~machine:"raw4" "life" ]
       with
      | Ok [ _ ] -> ()
      | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      Cs_svc.Server.stop server;
      Cs_svc.Server.stop server);
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket)

(* A closed connection must drop out of the listener, or a shard holds
   one entry per forwarded job and per probe for the life of the
   process; the gauge shows what is held. *)
let test_serve_drops_closed_connections () =
  let module M = Cs_obs.Metrics in
  let socket = tmp_path (Printf.sprintf "cs_svc_conns_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:1 socket in
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      for i = 1 to 300 do
        match Cs_svc.Client.fetch_stats ~addr () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "stats round trip %d failed: %s" i e
      done;
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Error e -> Alcotest.failf "metrics verb failed: %s" e
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        (match M.find snap "csched_connections_open" with
        | Some (M.Gauge_v v) ->
          if v > 2.0 then
            Alcotest.failf "%.0f connections held after 300 one-shot ones" v
        | _ -> Alcotest.fail "connections gauge missing"))

(* --- wire framing (property) --------------------------------------- *)

(* Write [input] into a socketpair in writes of [sizes] bytes (cycled)
   on another domain, then close; return what [Conn.read_lines] yields. *)
let frame_through ~sizes input =
  let r, w = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let sizes = Array.of_list sizes in
  let writer =
    Domain.spawn (fun () ->
        let n = String.length input in
        let rec go off i =
          if off < n then begin
            let k = min (n - off) sizes.(i mod Array.length sizes) in
            Cs_svc.Conn.write_all w (String.sub input off k);
            go (off + k) (i + 1)
          end
        in
        go 0 0;
        Unix.close w)
  in
  let lines = ref [] in
  let result = Cs_svc.Conn.read_lines r (fun l -> lines := l :: !lines) in
  Domain.join writer;
  Unix.close r;
  (result, List.rev !lines)

let check_framing ~sizes input =
  match frame_through ~sizes input with
  | Error e, _ -> QCheck.Test.fail_reportf "read error: %s" (Unix.error_message e)
  | Ok (), lines -> lines = String.split_on_char '\n' input

(* Lines of random bytes other than '\n' (empty lines, '\r' and bytes
   >= 0x80 included), one of them longer than three 4096-byte read
   chunks; writes from 1 byte up, some straddling a chunk boundary. *)
let framing_prop =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (6, char_range 'a' 'z'); (1, return '\r'); (1, return ' ');
        (2, map Char.chr (int_range 0x80 0xff)) ]
  in
  let line = frequency [ (1, return ""); (4, string_size ~gen:byte (int_bound 40)) ] in
  let long = string_size ~gen:byte (int_range ((3 * 4096) + 1) (4 * 4096)) in
  let input =
    map3
      (fun lines long at ->
        let at = at mod (List.length lines + 1) in
        String.concat "\n"
          (List.filteri (fun i _ -> i < at) lines
          @ (long :: List.filteri (fun i _ -> i >= at) lines)))
      (list_size (int_bound 30) line) long nat
  in
  let size =
    frequency
      [ (2, return 1); (3, int_range 1 16); (2, oneofl [ 4095; 4096; 4097; 8193 ]);
        (2, int_range 1 9000) ]
  in
  let print (sizes, input) =
    Printf.sprintf "sizes=[%s] input=%d bytes"
      (String.concat ";" (List.map string_of_int sizes))
      (String.length input)
  in
  QCheck.Test.make ~count:40 ~name:"read_lines = split_on_char over any write split"
    (QCheck.make ~print (pair (list_size (int_range 1 8) size) input))
    (fun (sizes, input) -> check_framing ~sizes input)

let test_framing_one_byte_writes () =
  let long = String.init ((3 * 4096) + 7) (fun i -> Char.chr (0x61 + (i mod 26))) in
  let input = String.concat "\n" [ ""; "a\r"; long; "\xff\xfe"; ""; "tail" ] in
  Alcotest.(check bool) "1-byte writes" true (check_framing ~sizes:[ 1 ] input);
  Alcotest.(check bool) "trailing newline" true
    (check_framing ~sizes:[ 4095; 2 ] (input ^ "\n"))

(* A read error after a partial line yields only the complete lines:
   the tail is never parsed as if it were whole. *)
let test_framing_read_error_drops_partial () =
  let r, w = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.setsockopt_float r SO_RCVTIMEO 0.05;
  Cs_svc.Conn.write_all w "first\nsecond\npart";
  let lines = ref [] in
  let result = Cs_svc.Conn.read_lines r (fun l -> lines := l :: !lines) in
  Unix.close r;
  Unix.close w;
  (match result with
  | Error (EAGAIN | EWOULDBLOCK) -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Unix.error_message e)
  | Ok () -> Alcotest.fail "a timed-out read must be an error");
  Alcotest.(check (list string)) "complete lines only" [ "first"; "second" ]
    (List.rev !lines)

(* --- retry backoff saturation (property) --------------------------- *)

let to_alcotest test =
  let rng = Cs_util.Rng.create 0x5E12_EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

(* The bug this guards against: the naive [base *. mult ** attempt]
   overflows to infinity (or goes non-monotone through NaN) at high
   attempt counts. The fixed schedule must stay finite, saturate at
   [max_delay_s], and without jitter be monotone non-decreasing. *)
let retry_backoff_prop =
  let gen =
    QCheck.Gen.(
      map3
        (fun attempts mult seed -> (attempts, mult, seed))
        (int_range 2 400)
        (map (fun m -> 1.0 +. (float_of_int m /. 10.0)) (int_bound 90))
        (int_bound 10_000))
  in
  let print (attempts, mult, seed) =
    Printf.sprintf "attempts=%d mult=%.1f seed=%d" attempts mult seed
  in
  QCheck.Test.make ~count:60 ~name:"backoff saturates at max_delay, stays monotone"
    (QCheck.make ~print gen)
    (fun (attempts, mult, seed) ->
      let policy =
        { Cs_svc.Retry.default with
          max_attempts = attempts; multiplier = mult; seed; jitter = 0.5 }
      in
      let delays = Cs_svc.Retry.delays policy in
      let cap = policy.Cs_svc.Retry.max_delay_s *. (1.0 +. policy.Cs_svc.Retry.jitter) in
      List.iter
        (fun d ->
          if not (Float.is_finite d) then
            QCheck.Test.fail_reportf "non-finite delay %f" d;
          if d < 0.0 || d > cap +. 1e-9 then
            QCheck.Test.fail_reportf "delay %f outside [0, %f]" d cap)
        delays;
      (* without jitter the raw exponential must be monotone *)
      let bare = Cs_svc.Retry.delays { policy with jitter = 0.0 } in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      if not (monotone bare) then
        QCheck.Test.fail_reportf "unjittered schedule non-monotone";
      List.length delays = attempts - 1)

(* --- proto tenant / class ------------------------------------------ *)

let test_proto_tenant_class_roundtrip () =
  let r =
    Cs_svc.Proto.request ~id:"t1" ~tenant:"team-a" ~job_class:"interactive" "fir"
  in
  (match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "tenant survives the wire" (Some "team-a")
      r'.Cs_svc.Proto.tenant;
    Alcotest.(check (option string)) "class survives the wire" (Some "interactive")
      r'.Cs_svc.Proto.job_class);
  match
    Cs_svc.Proto.request_of_line
      (Cs_svc.Proto.request_to_line (Cs_svc.Proto.request ~id:"t2" "fir"))
  with
  | Error e -> Alcotest.failf "bare roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "absent tenant stays absent" None
      r'.Cs_svc.Proto.tenant;
    Alcotest.(check (option string)) "absent class stays absent" None
      r'.Cs_svc.Proto.job_class

(* --- fair admission queue ------------------------------------------ *)

let test_fairq_quota_binds_per_tenant () =
  let q = Cs_svc.Fairq.create ~tenant_quota:2 ~capacity:10 () in
  let admit tenant x = Cs_svc.Fairq.admit q ~tenant ~lane:Cs_svc.Fairq.Batch x in
  Alcotest.(check bool) "hog 1" true (admit "hog" 1 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "hog 2" true (admit "hog" 2 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "hog over quota" true (admit "hog" 3 = Cs_svc.Fairq.Over_quota);
  Alcotest.(check bool) "other tenant unaffected" true
    (admit "quiet" 4 = Cs_svc.Fairq.Admitted);
  (* draining the hog frees its quota *)
  ignore (Cs_svc.Fairq.pull q);
  Alcotest.(check bool) "quota freed by drain" true
    (admit "hog" 5 = Cs_svc.Fairq.Admitted)

let test_fairq_capacity_sheds () =
  let q = Cs_svc.Fairq.create ~capacity:2 () in
  let admit tenant x = Cs_svc.Fairq.admit q ~tenant ~lane:Cs_svc.Fairq.Batch x in
  Alcotest.(check bool) "1" true (admit "a" 1 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "2" true (admit "b" 2 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "full sheds, not quota" true
    (admit "c" 3 = Cs_svc.Fairq.Queue_full);
  Cs_svc.Fairq.close q;
  Alcotest.(check bool) "closed sheds" true (admit "a" 4 = Cs_svc.Fairq.Queue_full)

let test_fairq_drr_interleaves_tenants () =
  let q = Cs_svc.Fairq.create ~capacity:16 () in
  (* tenant a floods first; b trickles in after — DRR must still
     alternate instead of draining a's backlog first *)
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"a" ~lane:Cs_svc.Fairq.Batch ("a", i))
  done;
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"b" ~lane:Cs_svc.Fairq.Batch ("b", i))
  done;
  let order = List.init 8 (fun _ -> Option.get (Cs_svc.Fairq.pull q)) in
  let firsts = List.filteri (fun i _ -> i < 4) order in
  Alcotest.(check int) "first four pulls: two from each tenant" 2
    (List.length (List.filter (fun (t, _) -> t = "a") firsts));
  (* per-tenant FIFO preserved *)
  Alcotest.(check (list int)) "tenant a in FIFO order" [ 0; 1; 2; 3 ]
    (List.filter_map (fun (t, i) -> if t = "a" then Some i else None) order)

let test_fairq_weights_bias_service () =
  let q = Cs_svc.Fairq.create ~weights:[ ("heavy", 2) ] ~capacity:16 () in
  for i = 0 to 5 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"heavy" ~lane:Cs_svc.Fairq.Batch ("heavy", i));
    ignore (Cs_svc.Fairq.admit q ~tenant:"light" ~lane:Cs_svc.Fairq.Batch ("light", i))
  done;
  let order = List.init 6 (fun _ -> Option.get (Cs_svc.Fairq.pull q)) in
  Alcotest.(check int) "weight-2 tenant gets 2/3 of early service" 4
    (List.length (List.filter (fun (t, _) -> t = "heavy") order))

let test_fairq_lane_priority_and_batch_share () =
  let q = Cs_svc.Fairq.create ~batch_share:2 ~capacity:16 () in
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch ("B", i))
  done;
  for i = 0 to 1 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Interactive ("I", i))
  done;
  let order = List.init 6 (fun _ -> fst (Option.get (Cs_svc.Fairq.pull q))) in
  (* interactive first, but batch guaranteed every 2nd pull; batch
     drains the tail once interactive is empty *)
  Alcotest.(check (list string)) "lane interleaving"
    [ "I"; "B"; "I"; "B"; "B"; "B" ] order;
  Alcotest.(check int) "drained" 0 (Cs_svc.Fairq.length q)

let test_fairq_peak_watermark () =
  let q = Cs_svc.Fairq.create ~capacity:8 () in
  for i = 0 to 4 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch i)
  done;
  for _ = 0 to 4 do
    ignore (Cs_svc.Fairq.pull q)
  done;
  Alcotest.(check int) "empty now" 0 (Cs_svc.Fairq.length q);
  Alcotest.(check int) "peak remembers the high-water mark" 5 (Cs_svc.Fairq.peak q)

let test_fairq_pull_blocks_until_admit () =
  let q = Cs_svc.Fairq.create ~capacity:4 () in
  let pulled = Atomic.make false in
  let puller =
    Domain.spawn (fun () ->
        let x = Cs_svc.Fairq.pull q in
        Atomic.set pulled true;
        x)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "pull waits on an empty queue" false (Atomic.get pulled);
  ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch 7);
  Alcotest.(check (option int)) "admit wakes the puller" (Some 7) (Domain.join puller)

let test_fairq_close_drains_then_ends () =
  let q = Cs_svc.Fairq.create ~capacity:4 () in
  List.iter
    (fun x -> ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch x))
    [ 1; 2; 3 ];
  Cs_svc.Fairq.close q;
  let drained = List.init 3 (fun _ -> Cs_svc.Fairq.pull q) in
  Alcotest.(check (list (option int))) "admitted before close still drain"
    [ Some 1; Some 2; Some 3 ] drained;
  Alcotest.(check (option int)) "closed and empty ends" None (Cs_svc.Fairq.pull q)

let test_fairq_close_wakes_blocked_pull () =
  let q : int Cs_svc.Fairq.t = Cs_svc.Fairq.create ~capacity:4 () in
  let puller = Domain.spawn (fun () -> Cs_svc.Fairq.pull q) in
  Unix.sleepf 0.05;
  Cs_svc.Fairq.close q;
  Alcotest.(check (option int)) "close ends a blocked pull" None (Domain.join puller)

(* --- brownout controller ------------------------------------------- *)

let test_brownout_escalates_and_recovers_hysteretically () =
  let settings =
    { Cs_svc.Brownout.default with
      high_ms = 50.0; low_ms = 10.0; alpha = 1.0; dwell_s = 1.0; max_level = 2 }
  in
  let b = Cs_svc.Brownout.create settings in
  Alcotest.(check int) "starts at level 0" 0 (Cs_svc.Brownout.level b);
  Alcotest.(check (option (float 0.0))) "no synthetic budget at level 0" None
    (Cs_svc.Brownout.budget_ms b);
  Cs_svc.Brownout.observe ~now:0.0 b ~wait_ms:100.0;
  Alcotest.(check int) "escalates immediately" 1 (Cs_svc.Brownout.level b);
  Cs_svc.Brownout.observe ~now:0.1 b ~wait_ms:100.0;
  Alcotest.(check int) "escalates again under sustained burn" 2
    (Cs_svc.Brownout.level b);
  Alcotest.(check int) "capped at max_level" 2
    (Cs_svc.Brownout.observe ~now:0.2 b ~wait_ms:500.0;
     Cs_svc.Brownout.level b);
  Alcotest.(check (float 1e-9)) "scale halves per level" 0.25 (Cs_svc.Brownout.scale b);
  (match Cs_svc.Brownout.budget_ms b with
  | Some ms ->
    Alcotest.(check (float 1e-9)) "synthetic budget halves above level 1"
      (settings.Cs_svc.Brownout.cap_ms /. 2.0) ms
  | None -> Alcotest.fail "expected a synthetic budget above level 0");
  (* quiet signal, but inside the dwell: no recovery yet *)
  Cs_svc.Brownout.observe ~now:0.5 b ~wait_ms:0.0;
  Alcotest.(check int) "dwell blocks immediate recovery" 2 (Cs_svc.Brownout.level b);
  (* past the dwell the level steps down one at a time *)
  Cs_svc.Brownout.observe ~now:2.0 b ~wait_ms:0.0;
  Alcotest.(check int) "recovers one level after dwell" 1 (Cs_svc.Brownout.level b);
  Cs_svc.Brownout.observe ~now:4.0 b ~wait_ms:0.0;
  Alcotest.(check int) "back to normal" 0 (Cs_svc.Brownout.level b);
  Alcotest.(check int) "upward transitions counted" 2
    (Cs_svc.Brownout.escalations b)

(* --- lanes: whole jobs, quota and accounting end to end ----------- *)

(* The (cycles, transfers) an in-process convergent run gives fir at
   [scale] on raw4: what a served job's reply must carry. *)
let in_process_fir scale =
  let fir = Option.get (Cs_workloads.Suite.find "fir") in
  let region =
    fir.Cs_workloads.Suite.generate ~scale
      ~clusters:(Cs_machine.Machine.n_clusters raw4) ()
  in
  let sched =
    Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Convergent
      ~machine:raw4 region
  in
  (Cs_sched.Schedule.makespan sched, Cs_sched.Schedule.n_comms sched)

let check_matches_in_process ~scale (r : Cs_svc.Proto.reply) =
  match r.Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.failf "scale %d refused: %s" scale e.message
  | Cs_svc.Proto.Scheduled s ->
    let cycles, transfers = in_process_fir scale in
    Alcotest.(check int) (Printf.sprintf "cycles at scale %d" scale)
      cycles s.cycles;
    Alcotest.(check int) (Printf.sprintf "transfers at scale %d" scale)
      transfers s.transfers

(* A served job runs whole, so its reply carries the schedule an
   in-process run of the same region gives. Scales 17 and 20 lie above
   16, the largest scale a job-splitting server would have run whole. *)
let test_serve_matches_in_process () =
  let socket = tmp_path (Printf.sprintf "cs_svc_whole_%d.sock" (Unix.getpid ())) in
  let scales = [ 17; 20 ] in
  let replies =
    with_server (Cs_svc.Server.config socket) (fun _ ->
        match
          Cs_svc.Client.submit ~timeout_s:300.0
            ~addr:(Cs_svc.Transport.parse_exn socket)
            (List.map
               (fun scale ->
                 Cs_svc.Proto.request ~id:(string_of_int scale) ~machine:"raw4"
                   ~scale "fir")
               scales)
        with
        | Ok replies -> replies
        | Error e -> Alcotest.failf "submit failed: %s" e)
  in
  List.iter
    (fun scale ->
      let id = string_of_int scale in
      match
        List.find_opt (fun r -> r.Cs_svc.Proto.reply_id = id) replies
      with
      | None -> Alcotest.failf "no reply for scale %d" scale
      | Some r -> check_matches_in_process ~scale r)
    scales

(* The next two cases keep the names they had when the server split
   jobs above a scale threshold into parts; they now pin that it does
   not. Same inputs as before (two workers, an 8-slot queue, fir at
   scale 8): the oversized job is admitted and completed as one job,
   its reply is the whole region's schedule, and the stats no longer
   carry a [splits] entry. *)
let test_serve_oversized_job_whole () =
  let socket = tmp_path (Printf.sprintf "cs_svc_split_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:2 ~queue_capacity:8 socket in
  let reply, stats =
    with_server cfg (fun server ->
        match
          Cs_svc.Client.submit ~timeout_s:120.0
            ~addr:(Cs_svc.Transport.parse_exn socket)
            [ Cs_svc.Proto.request ~id:"big" ~machine:"raw4" ~scale:8 "fir" ]
        with
        | Ok [ reply ] -> (reply, Cs_svc.Server.server_stats server)
        | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
        | Error e -> Alcotest.failf "submit failed: %s" e)
  in
  check_matches_in_process ~scale:8 reply;
  Alcotest.(check int) "admitted as one job" 1 stats.Cs_svc.Proto.admitted;
  Alcotest.(check int) "completed as one job" 1 stats.Cs_svc.Proto.completed;
  Alcotest.(check bool) "no splits entry" false
    (List.mem_assoc "splits" stats.Cs_svc.Proto.extra)

(* One worker and an 8-slot queue, a scale-1 job and then a scale-24
   one (the old case's scale 100, cut so the whole region schedules in
   about a second). The big job never reaches an overflow queue or an
   inline part: its job:run span appears exactly once, its reply is the
   whole region's schedule, and no server exports an overflow counter. *)
let test_serve_oversized_job_runs_once () =
  let module M = Cs_obs.Metrics in
  let module Obs = Cs_obs.Obs in
  let socket = tmp_path (Printf.sprintf "cs_svc_ovf_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:1 ~queue_capacity:8 socket in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      let submit1 id scale =
        match
          Cs_svc.Client.submit ~timeout_s:300.0 ~addr
            [ Cs_svc.Proto.request ~id ~machine:"raw4" ~scale "fir" ]
        with
        | Ok [ r ] -> check_matches_in_process ~scale r
        | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
        | Error e -> Alcotest.failf "submit failed: %s" e
      in
      submit1 "one" 1;
      submit1 "big" 24;
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        Alcotest.(check bool) "no overflow counter" true
          (M.find snap "csched_overflow_total" = None)
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json"
      | Error e -> Alcotest.failf "metrics verb failed: %s" e);
  let runs =
    List.filter
      (fun e -> e.Obs.name = "job:run" && List.mem ("id", Obs.Str "big") e.Obs.args)
      (Obs.events ())
  in
  Alcotest.(check int) "the big job ran once" 1 (List.length runs)

let test_serve_quota_refusal_is_typed () =
  let socket = tmp_path (Printf.sprintf "cs_svc_quota_%d.sock" (Unix.getpid ())) in
  (* one slow worker, roomy global queue, but a one-job tenant quota:
     the pipelined burst must draw quota-exceeded (not overloaded) *)
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:8 ~tenant_quota:1
      ~chaos_slow_ms:300.0 socket
  in
  let replies, stats =
    with_server cfg (fun server ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "q%d" i) ~machine:"raw4"
                ~tenant:"hog" "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> (replies, Cs_svc.Server.stats server))
  in
  Alcotest.(check int) "every job answered" 6 (List.length replies);
  let quota_refused =
    List.filter
      (fun r ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Refused e -> e.kind = "quota-exceeded"
        | _ -> false)
      replies
  in
  Alcotest.(check bool) "typed quota refusals" true (List.length quota_refused >= 1);
  Alcotest.(check int) "stats agree with replies" (List.length quota_refused)
    stats.Cs_svc.Server.quota_refused;
  Alcotest.(check int) "quota is not a shed (capacity never reached)" 0
    stats.Cs_svc.Server.shed

let test_serve_mixed_verdict_strict_accounting () =
  let socket = tmp_path (Printf.sprintf "cs_svc_strict_%d.sock" (Unix.getpid ())) in
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:1 ~chaos_slow_ms:150.0 socket
  in
  let replies =
    with_server cfg (fun _ ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "s%d" i) ~machine:"raw4" "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> replies)
  in
  (* the exact classification `csched submit --strict` exits on:
     every reply is either scheduled or refused, sheds count as both
     refused and shed, and a mixed batch must trip the strict gate *)
  let scheduled, refused, shed =
    List.fold_left
      (fun (ok, refused, shed) (r : Cs_svc.Proto.reply) ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Scheduled _ -> (ok + 1, refused, shed)
        | Cs_svc.Proto.Refused { kind; _ }
          when kind = "overloaded" || kind = "quota-exceeded" ->
          (ok, refused + 1, shed + 1)
        | Cs_svc.Proto.Refused _ -> (ok, refused + 1, shed))
      (0, 0, 0) replies
  in
  Alcotest.(check int) "partition covers the batch" 6 (scheduled + refused);
  Alcotest.(check bool) "mixed verdicts: some scheduled" true (scheduled >= 1);
  Alcotest.(check bool) "mixed verdicts: some shed" true (shed >= 1);
  Alcotest.(check bool) "strict gate would trip" true (refused > 0)

let test_serve_queue_depth_peak_gauge () =
  let module M = Cs_obs.Metrics in
  let socket = tmp_path (Printf.sprintf "cs_svc_peak_%d.sock" (Unix.getpid ())) in
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:4 ~chaos_slow_ms:150.0 socket
  in
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      let jobs =
        List.init 4 (fun i ->
            Cs_svc.Proto.request ~id:(Printf.sprintf "p%d" i) ~machine:"raw4" "fir")
      in
      (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
      | Ok rs -> Alcotest.(check int) "all answered" 4 (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Error e -> Alcotest.failf "metrics verb failed: %s" e
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json"
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        (match M.find snap "csched_queue_depth_peak" with
        | Some (M.Gauge_v v) ->
          Alcotest.(check bool) "peak gauge recorded a backlog" true (v >= 1.0)
        | _ -> Alcotest.fail "csched_queue_depth_peak missing"))

(* NaN compares false both ways, so a NaN period would spin and a NaN
   budget or deadline would never fire; config must refuse them. *)
let test_config_rejects_bad_durations () =
  let rejects what f =
    match f () with
    | (_ : Cs_svc.Server.config) -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let cfg = Cs_svc.Server.config in
  List.iter
    (fun v ->
      rejects (Printf.sprintf "heartbeat_period_s %g" v) (fun () ->
          cfg ~heartbeat_period_s:v "127.0.0.1:0"))
    [ nan; 0.0; -1.0; infinity ];
  List.iter
    (fun v ->
      rejects (Printf.sprintf "pass_budget_s %g" v) (fun () ->
          cfg ~pass_budget_s:v "127.0.0.1:0");
      rejects (Printf.sprintf "default_deadline_ms %g" v) (fun () ->
          cfg ~default_deadline_ms:v "127.0.0.1:0"))
    [ nan; -1.0; infinity; neg_infinity ];
  ignore
    (cfg ~heartbeat_period_s:0.05 ~pass_budget_s:0.0 ~default_deadline_ms:0.0
       "127.0.0.1:0")

let () =
  Alcotest.run "svc"
    [
      ( "anytime",
        [
          Alcotest.test_case "expired deadline answers" `Quick
            test_expired_deadline_still_answers;
          Alcotest.test_case "truncates to one pass" `Quick
            test_expired_deadline_matches_first_pass_only;
          Alcotest.test_case "no deadline no timeout" `Quick
            test_no_deadline_never_times_out;
          Alcotest.test_case "pass budget quarantines" `Quick
            test_pass_timeout_quarantined;
          Alcotest.test_case "pass timeout in outcome" `Quick
            test_pass_timeout_surfaces_in_outcome;
        ] );
      ( "retry",
        [
          Alcotest.test_case "delays deterministic" `Quick test_retry_delays_deterministic;
          Alcotest.test_case "sleeps the schedule" `Quick
            test_retry_sleeps_recorded_schedule;
          Alcotest.test_case "gives up / skips permanent" `Quick
            test_retry_gives_up_and_skips_permanent;
        ] );
      ( "fsio",
        [ Alcotest.test_case "atomic write roundtrip" `Quick test_fsio_atomic_write_roundtrip ] );
      ( "checkpoint",
        [
          Alcotest.test_case "ga resume bit-identical" `Slow test_ga_resume_bit_identical;
          Alcotest.test_case "ga checkpoint file roundtrip" `Slow
            test_ga_checkpoint_file_roundtrip;
          Alcotest.test_case "ga deadline stops early" `Quick
            test_ga_deadline_reports_budget_exhausted;
          Alcotest.test_case "fuzz journal resume identical" `Slow
            test_fuzz_journal_resume_identical;
          Alcotest.test_case "fuzz journal mismatch fresh" `Quick
            test_fuzz_journal_mismatch_starts_fresh;
        ] );
      ( "queue",
        [
          Alcotest.test_case "bounds and order" `Quick test_squeue_bounds_and_order;
          Alcotest.test_case "concurrent" `Quick test_squeue_concurrent_producers_consumers;
          Alcotest.test_case "exact-capacity shed under racing producers" `Quick
            test_squeue_sheds_at_exact_capacity_concurrently;
        ] );
      ( "transport",
        [
          Alcotest.test_case "parse edge cases" `Quick test_transport_parse_edge_cases;
          Alcotest.test_case "port 0 resolves" `Quick test_transport_port_zero_resolves;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick test_proto_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_proto_reply_roundtrip;
          Alcotest.test_case "idem key roundtrip" `Quick test_proto_idem_key_roundtrip;
          Alcotest.test_case "heartbeat roundtrip" `Quick test_proto_heartbeat_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_proto_malformed_line;
        ] );
      ( "job",
        [
          Alcotest.test_case "typed refusals" `Quick test_job_refusals_are_typed;
          Alcotest.test_case "CHAOS refused within its deadline" `Quick test_job_refuses_chaos;
          Alcotest.test_case "schedules under deadline" `Quick
            test_job_schedules_with_deadline;
        ] );
      ( "server",
        [
          Alcotest.test_case "mixed batch" `Slow test_serve_mixed_batch;
          Alcotest.test_case "sheds overload" `Slow test_serve_sheds_when_overloaded;
          Alcotest.test_case "metrics verb" `Slow test_serve_metrics_verb;
          Alcotest.test_case "clean idempotent stop" `Slow
            test_serve_stop_is_clean_and_idempotent;
          Alcotest.test_case "config rejects non-finite durations" `Quick
            test_config_rejects_bad_durations;
        ] );
      ("backoff", [ to_alcotest retry_backoff_prop ]);
      ( "conn",
        [
          to_alcotest framing_prop;
          Alcotest.test_case "1-byte writes across a long line" `Quick
            test_framing_one_byte_writes;
          Alcotest.test_case "read error drops the partial line" `Quick
            test_framing_read_error_drops_partial;
          Alcotest.test_case "closed connections dropped" `Slow
            test_serve_drops_closed_connections;
        ] );
      ( "tenancy",
        [
          Alcotest.test_case "proto tenant/class roundtrip" `Quick
            test_proto_tenant_class_roundtrip;
          Alcotest.test_case "quota binds per tenant" `Quick
            test_fairq_quota_binds_per_tenant;
          Alcotest.test_case "capacity sheds" `Quick test_fairq_capacity_sheds;
          Alcotest.test_case "DRR interleaves tenants" `Quick
            test_fairq_drr_interleaves_tenants;
          Alcotest.test_case "weights bias service" `Quick
            test_fairq_weights_bias_service;
          Alcotest.test_case "lane priority + batch share" `Quick
            test_fairq_lane_priority_and_batch_share;
          Alcotest.test_case "peak watermark" `Quick test_fairq_peak_watermark;
          Alcotest.test_case "pull blocks until admit" `Quick
            test_fairq_pull_blocks_until_admit;
          Alcotest.test_case "close drains, then pull ends" `Quick
            test_fairq_close_drains_then_ends;
          Alcotest.test_case "close wakes a blocked pull" `Quick
            test_fairq_close_wakes_blocked_pull;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "hysteretic escalate/recover" `Quick
            test_brownout_escalates_and_recovers_hysteretically;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "served reply equals in-process schedule" `Slow
            test_serve_matches_in_process;
          Alcotest.test_case "typed quota refusal" `Slow
            test_serve_quota_refusal_is_typed;
          Alcotest.test_case "mixed-verdict strict accounting" `Slow
            test_serve_mixed_verdict_strict_accounting;
          Alcotest.test_case "queue depth peak gauge" `Slow
            test_serve_queue_depth_peak_gauge;
          Alcotest.test_case "splits oversized job" `Slow
            test_serve_oversized_job_whole;
          Alcotest.test_case "split parts overflow, then run inline" `Slow
            test_serve_oversized_job_runs_once;
        ] );
    ]
