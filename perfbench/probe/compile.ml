(* compile-raw16 / compile-vliw4: the machine's Table 1 suite scheduled
   in process through [Pipeline.schedule_resilient], closed loop, one
   thread. Every makespan is checked against the golden table. *)

let now = Cs_obs.Clock.now

type round = { total_ms : float; wrong : int; cycles : int }

let run_round golden (scens : Scen.t array) order =
  let total = ref 0.0 and wrong = ref 0 and cycles = ref 0 in
  Array.iter
    (fun i ->
      let s = scens.(i) in
      let t = now () in
      let a = Scen.reference s in
      total := !total +. ((now () -. t) *. 1000.0);
      match a with
      | Ok a when Hashtbl.find_opt golden (s.Scen.machine_name, s.bench) = Some a.Scen.cycles ->
        cycles := !cycles + a.cycles
      | Ok a ->
        incr wrong;
        Printf.eprintf "compile: %s made %d cycles, golden says %s\n%!" (Scen.label s) a.cycles
          (match Hashtbl.find_opt golden (s.machine_name, s.bench) with
          | Some c -> string_of_int c
          | None -> "nothing")
      | Error e ->
        incr wrong;
        Printf.eprintf "compile: %s failed: %s\n%!" (Scen.label s) e)
    order;
  { total_ms = !total; wrong = !wrong; cycles = !cycles }

(* Set-up: generate the suite's regions, then one warm-up round.
   Returns the regions, the set-up's seconds and its wrong count. *)
let setup ~machine_name golden =
  let t = now () in
  let scens = Array.of_list (Scen.suite machine_name) in
  let warm = run_round golden scens (Array.init (Array.length scens) Fun.id) in
  (scens, (now () -. t, warm.wrong))

(* [setup_s] is the fastest of this many set-ups, spread evenly over
   the run's window between rounds. One set-up is a single round, and
   load from other tenants of a shared host comes in bursts of about a
   second, so back-to-back set-ups all land in the same burst. *)
let setup_repeats = 5

let untraced ~machine_name ~golden ~seed ~seconds =
  let t0 = now () in
  let scens, first = setup ~machine_name golden in
  let setups = ref [ first ] in
  let rng = Cs_util.Rng.create seed in
  let n = Array.length scens in
  let rounds = ref [] in
  while !rounds = [] || now () < t0 +. seconds do
    let k = List.length !setups in
    if k < setup_repeats && now () >= t0 +. (seconds *. float_of_int k /. float_of_int setup_repeats)
    then setups := snd (setup ~machine_name golden) :: !setups
    else begin
      let order = Array.init n Fun.id in
      Cs_util.Rng.shuffle rng order;
      rounds := run_round golden scens order :: !rounds
    end
  done;
  let setups = !setups and rounds = List.rev !rounds in
  (* set-up rounds are checked against the golden table too *)
  let attempted = n * (List.length rounds + List.length setups) in
  let failed =
    List.fold_left (fun acc r -> acc + r.wrong) 0 rounds
    + List.fold_left (fun acc (_, w) -> acc + w) 0 setups
  in
  (* Throughput comes from the run's fastest whole round. Scheduling the
     suite is the same deterministic work every round, so a slower round
     only measures other load on the host; the fastest round is what the
     code costs, GC work included. *)
  let best_ms = List.fold_left (fun acc r -> Float.min acc r.total_ms) infinity rounds in
  let m = Benchlib.metric in
  let metrics =
    [ m "throughput_per_s" "1/s" (float_of_int n /. (best_ms /. 1000.0));
      m "cycles_total" "cycles" (float_of_int (List.hd rounds).cycles);
      m "ok_frac" "ratio" (1.0 -. (float_of_int failed /. float_of_int attempted));
      m "setup_s" "s" (List.fold_left (fun acc (t, _) -> Float.min acc t) infinity setups);
      m "peak_rss_mb" "MiB" (float_of_int (Proc.vm_hwm_kb ()) /. 1024.0) ]
  in
  Printf.eprintf "compile %s: %d rounds, %d regions scheduled, %d wrong\n%!" machine_name
    (List.length rounds) attempted failed;
  (failed = 0, attempted, failed, metrics)

(* The in-process half of a traced run: one round checked against the
   golden table, then the decomposed pipeline over [scens] for
   [seconds]. *)
let layers ~golden ~seconds (scens : Scen.t array) =
  let warm = run_round golden scens (Array.init (Array.length scens) Fun.id) in
  let d = Layers.decompose ~seconds (Array.to_list scens) in
  let m = Benchlib.metric in
  let metrics =
    Layers.decomposition_metrics d
    @ [ m "instrs" "count"
          (float_of_int
             (Array.fold_left (fun acc (s : Scen.t) -> acc + Cs_ddg.Region.n_instrs s.region) 0 scens));
        m "quarantined" "count" (float_of_int d.quarantined);
        m "timed_out" "count" (float_of_int d.timed_out);
        m "rung.requested_frac" "ratio"
          (float_of_int d.requested /. float_of_int (max 1 d.calls)) ]
  in
  let failed = warm.wrong + d.mismatches in
  (failed = 0, Array.length scens + d.calls, failed, metrics)
