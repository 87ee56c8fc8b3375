(* End-to-end tests: pipelines, speedups, convergence traces, and the
   paper's headline qualitative results at small scale. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let entry name = Option.get (Cs_workloads.Suite.find name)

let test_every_scheduler_validates_everywhere () =
  (* Pipeline.schedule validates internally; exercise the matrix of
     machines x schedulers x a representative workload. *)
  let machines = [ Cs_machine.Raw.with_tiles 4; Cs_machine.Vliw.create ~n_clusters:4 () ] in
  let region = (entry "jacobi").Cs_workloads.Suite.generate ~clusters:4 () in
  List.iter
    (fun machine ->
      List.iter
        (fun scheduler ->
          let sched = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
          check_bool
            (Cs_sim.Pipeline.scheduler_name scheduler ^ " makespan positive")
            true
            (Cs_sched.Schedule.makespan sched > 0))
        Cs_sim.Pipeline.all_schedulers)
    machines

let test_scheduler_names_roundtrip () =
  List.iter
    (fun s ->
      check_bool "roundtrip" true
        (Cs_sim.Pipeline.scheduler_of_name (Cs_sim.Pipeline.scheduler_name s) = Some s))
    Cs_sim.Pipeline.all_schedulers;
  check_bool "unknown" true (Cs_sim.Pipeline.scheduler_of_name "nope" = None)

let test_convergent_trace_returned () =
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let region = (entry "yuv").Cs_workloads.Suite.generate ~clusters:4 () in
  let _sched, trace = Cs_sim.Pipeline.convergent ~machine region in
  check_int "trace steps" (List.length (Cs_core.Sequence.vliw_default ())) (List.length trace)

let test_convergent_custom_passes () =
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let region = (entry "yuv").Cs_workloads.Suite.generate ~clusters:4 () in
  let passes = [ Cs_core.Inittime.pass (); Cs_core.Place.pass (); Cs_core.Placeprop.pass () ] in
  let sched, trace = Cs_sim.Pipeline.convergent ~passes ~machine region in
  check_int "3 steps" 3 (List.length trace);
  check_bool "valid" true (Cs_sched.Validator.check sched = Ok ())

let test_speedup_raw_monotone_data () =
  let m = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Convergent ~tiles:4 (entry "mxm") in
  check_bool "speedup > 1.5 on fat code" true (m.Cs_sim.Speedup.speedup > 1.5);
  check_bool "baseline >= n" true
    (m.Cs_sim.Speedup.baseline_cycles >= m.Cs_sim.Speedup.n_instrs)

let test_speedup_vliw_positive () =
  let m = Cs_sim.Speedup.on_vliw ~scheduler:Cs_sim.Pipeline.Uas ~clusters:4 (entry "vvmul") in
  check_bool "speedup > 2" true (m.Cs_sim.Speedup.speedup > 2.0)

let test_speedup_single_cluster_is_one () =
  let m = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Rawcc ~tiles:1 (entry "jacobi") in
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 m.Cs_sim.Speedup.speedup

(* The paper's headline qualitative results, at reduced scale:
   convergent beats the Rawcc baseline on preplacement-rich code and
   beats UAS on the VLIW suite on average; PCC/UAS/convergent all lose
   to convergent's average on the paper's metrics. *)

let test_convergent_beats_rawcc_on_mxm () =
  let c = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Convergent ~tiles:16 (entry "mxm") in
  let r = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Rawcc ~tiles:16 (entry "mxm") in
  check_bool "convergent wins" true (c.Cs_sim.Speedup.speedup > r.Cs_sim.Speedup.speedup)

let test_convergent_beats_rawcc_on_cholesky () =
  let c = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Convergent ~tiles:16 (entry "cholesky") in
  let r = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Rawcc ~tiles:16 (entry "cholesky") in
  check_bool "convergent wins" true (c.Cs_sim.Speedup.speedup > r.Cs_sim.Speedup.speedup)

let test_rawcc_beats_convergent_on_sha () =
  (* Paper Sec. 5: "For fpppp-kernel and sha, convergent scheduling
     performs worse than baseline Rawcc". *)
  let c = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Convergent ~tiles:16 (entry "sha") in
  let r = Cs_sim.Speedup.on_raw ~scheduler:Cs_sim.Pipeline.Rawcc ~tiles:16 (entry "sha") in
  check_bool "rawcc wins on sha" true (r.Cs_sim.Speedup.speedup >= c.Cs_sim.Speedup.speedup)

let test_convergent_beats_uas_on_average_vliw () =
  let ratios =
    List.map
      (fun e ->
        let c = Cs_sim.Speedup.on_vliw ~scheduler:Cs_sim.Pipeline.Convergent ~clusters:4 e in
        let u = Cs_sim.Speedup.on_vliw ~scheduler:Cs_sim.Pipeline.Uas ~clusters:4 e in
        c.Cs_sim.Speedup.speedup /. u.Cs_sim.Speedup.speedup)
      Cs_workloads.Suite.vliw_suite
  in
  check_bool "average ratio > 1" true (Cs_util.Stats.mean ratios > 1.0)

let test_compile_time_sweep_shape () =
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let points =
    Cs_sim.Compile_time.sweep ~sizes:[ 50; 100 ] ~scheduler:Cs_sim.Pipeline.Convergent
      ~machine ()
  in
  check_int "two points" 2 (List.length points);
  List.iter
    (fun p ->
      check_bool "nonnegative time" true (p.Cs_sim.Compile_time.seconds >= 0.0);
      check_bool "size recorded" true (p.Cs_sim.Compile_time.n_instrs > 0))
    points

let test_pcc_slower_than_uas () =
  (* Fig. 10's qualitative claim at small scale. *)
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let region = Cs_workloads.Shapes.layered ~n:400 ~seed:2
      ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:4) () in
  let t_pcc = Cs_sim.Compile_time.time_scheduler ~scheduler:Cs_sim.Pipeline.Pcc ~machine region in
  let t_uas = Cs_sim.Compile_time.time_scheduler ~scheduler:Cs_sim.Pipeline.Uas ~machine region in
  check_bool "pcc slower" true (t_pcc > t_uas)

let test_trace_dense_converges_early () =
  (* Fig. 7's qualitative claim: with useful preplacement, later passes
     change fewer preferred tiles than the early placement passes. *)
  let machine = Cs_machine.Raw.with_tiles 16 in
  let region = (entry "jacobi").Cs_workloads.Suite.generate ~clusters:16 () in
  let _sched, trace = Cs_sim.Pipeline.convergent ~machine region in
  let space = Cs_core.Trace.space_steps trace in
  let early = List.hd space in
  let late = List.nth space (List.length space - 1) in
  check_bool "early changes most" true
    (Cs_core.Trace.changed_fraction early >= Cs_core.Trace.changed_fraction late)

(* Allocation pins for the layers after the passes: the minor words
   that extraction, list scheduling and validation allocate over one
   Table 1 suite round, summed over the suite's regions. The round runs
   twice and the second is measured, so one-time setup is not counted.
   Measured at the time of writing (extraction, list scheduling,
   validation): raw16 3.3k, 88k, 92k; vliw4 2.1k, 31k, 25k. The bounds
   leave about 1.5x headroom, since the exact counts depend on the
   compiler; a layer that allocates per instruction again (a list of
   units, a tuple key, a boxed float, a closure) crosses them. *)
type layer_words = { extract : float; lsched : float; validate : float }

let layer_words machine =
  let suite =
    if Cs_machine.Machine.is_mesh machine then Cs_workloads.Suite.raw_suite
    else Cs_workloads.Suite.vliw_suite
  in
  let regions =
    List.map
      (fun (e : Cs_workloads.Suite.entry) ->
        e.generate ~clusters:(Cs_machine.Machine.n_clusters machine) ())
      suite
  in
  let passes = Cs_sim.Pipeline.default_passes ~machine in
  let round () =
    let extract = ref 0.0 and lsched = ref 0.0 and validate = ref 0.0 in
    let words acc f =
      let before = Gc.minor_words () in
      let x = f () in
      acc := !acc +. (Gc.minor_words () -. before);
      x
    in
    let agree = ref true and valid = ref true in
    List.iter
      (fun region ->
        let r = Cs_core.Driver.run ~machine region passes in
        let ctx = r.Cs_core.Driver.context in
        let assignment =
          words extract (fun () -> Cs_core.Driver.assignment_of_weights ctx r.weights)
        in
        agree := !agree && assignment = r.assignment;
        let analysis = ctx.Cs_core.Context.analysis in
        let priority =
          if Cs_machine.Machine.is_mesh machine then Cs_sched.Priority.alap analysis
          else Cs_sched.Priority.of_slots r.preferred_slot
        in
        let sched =
          words lsched (fun () ->
              Cs_sched.List_scheduler.run ~machine ~assignment ~priority ~analysis region)
        in
        Cs_core.Weights.release r.weights;
        valid := !valid && words validate (fun () -> Cs_sched.Validator.check sched) = Ok ())
      regions;
    check_bool "extraction repeats the driver's" true !agree;
    check_bool "every schedule valid" true !valid;
    { extract = !extract; lsched = !lsched; validate = !validate }
  in
  ignore (round ());
  round ()

let test_layer_allocation machine_name bound () =
  let machine =
    match Cs_svc.Proto.machine_of_name machine_name with Ok m -> m | Error e -> failwith e
  in
  let w = layer_words machine in
  let within what words limit =
    if words > limit then
      Alcotest.failf "%s %s allocates %.0f minor words per suite round, bound %.0f"
        machine_name what words limit
  in
  within "extraction" w.extract bound.extract;
  within "list scheduling" w.lsched bound.lsched;
  within "validation" w.validate bound.validate

(* Allocation pins for whole passes: the minor words from one
   [observe] call to the next, which is one pass application with its
   gate, its commit and the driver's churn count, on every Table 1
   region of a second suite round. The first reading also covers the
   driver's setup (the context and its analysis). The observer stores
   the counter into preallocated arrays, so it adds nothing. The
   largest readings over the regions at the time of writing, raw16:
   INITTIME 25k, PLACEPROP 19k, LOAD 0.8k, PLACE 6.2k, PATH 15k,
   PATHPROP 1.2k, LEVEL 16k, COMM 7.3k, EMPHCP 0.8k; vliw4: INITTIME
   19k, PLACEPROP 4.1k, LOAD 0.6k, PLACE 4.1k, PATH 1.2k, COMM 5.3k,
   EMPHCP 0.6k, NOISE 2.2k, FIRST 0.6k. The bounds leave about 1.5x
   headroom; a row kernel that boxed a float per entry again would
   cross them many times over. *)
let pass_words machine =
  let suite =
    if Cs_machine.Machine.is_mesh machine then Cs_workloads.Suite.raw_suite
    else Cs_workloads.Suite.vliw_suite
  in
  let passes = Cs_sim.Pipeline.default_passes ~machine in
  let steps = List.length passes in
  let round () =
    List.concat_map
      (fun (e : Cs_workloads.Suite.entry) ->
        let region = e.generate ~clusters:(Cs_machine.Machine.n_clusters machine) () in
        let marks = Array.make (steps + 1) 0.0 and names = Array.make steps "" and k = ref 0 in
        let observe name _ =
          names.(!k) <- name;
          incr k;
          marks.(!k) <- Gc.minor_words ()
        in
        marks.(0) <- Gc.minor_words ();
        let r = Cs_core.Driver.run ~observe ~machine region passes in
        Cs_core.Weights.release r.weights;
        check_int (e.name ^ ": every pass observed") steps !k;
        List.init steps (fun j -> (e.name, names.(j), marks.(j + 1) -. marks.(j))))
      suite
  in
  ignore (round ());
  round ()

let test_pass_allocation machine_name bounds () =
  let machine =
    match Cs_svc.Proto.machine_of_name machine_name with Ok m -> m | Error e -> failwith e
  in
  List.iter
    (fun (region, pass, words) ->
      match List.assoc_opt pass bounds with
      | None -> Alcotest.failf "%s %s: no bound for pass %s" machine_name region pass
      | Some limit ->
        if words > limit then
          Alcotest.failf "%s %s %s allocates %.0f minor words, bound %.0f" machine_name region
            pass words limit)
    (pass_words machine)

let () =
  Alcotest.run "cs_sim"
    [
      ( "pipeline",
        [
          Alcotest.test_case "matrix validates" `Slow test_every_scheduler_validates_everywhere;
          Alcotest.test_case "names roundtrip" `Quick test_scheduler_names_roundtrip;
          Alcotest.test_case "trace returned" `Quick test_convergent_trace_returned;
          Alcotest.test_case "custom passes" `Quick test_convergent_custom_passes;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "raw mxm" `Quick test_speedup_raw_monotone_data;
          Alcotest.test_case "vliw vvmul" `Quick test_speedup_vliw_positive;
          Alcotest.test_case "single cluster = 1" `Quick test_speedup_single_cluster_is_one;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "conv > rawcc on mxm" `Slow test_convergent_beats_rawcc_on_mxm;
          Alcotest.test_case "conv > rawcc on cholesky" `Slow test_convergent_beats_rawcc_on_cholesky;
          Alcotest.test_case "rawcc > conv on sha" `Slow test_rawcc_beats_convergent_on_sha;
          Alcotest.test_case "conv > uas avg (vliw)" `Slow test_convergent_beats_uas_on_average_vliw;
          Alcotest.test_case "dense converges early" `Slow test_trace_dense_converges_early;
        ] );
      ( "compile-time",
        [
          Alcotest.test_case "sweep shape" `Slow test_compile_time_sweep_shape;
          Alcotest.test_case "pcc slower" `Slow test_pcc_slower_than_uas;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "raw16 layers" `Quick
            (test_layer_allocation "raw16"
               { extract = 5_000.; lsched = 135_000.; validate = 140_000. });
          Alcotest.test_case "vliw4 layers" `Quick
            (test_layer_allocation "vliw4"
               { extract = 3_200.; lsched = 46_000.; validate = 37_000. });
          Alcotest.test_case "raw16 passes" `Quick
            (test_pass_allocation "raw16"
               [ ("INITTIME", 38_000.); ("PLACEPROP", 28_000.); ("LOAD", 1_200.);
                 ("PLACE", 9_500.); ("PATH", 23_000.); ("PATHPROP", 1_800.);
                 ("LEVEL", 25_000.); ("COMM", 11_000.); ("EMPHCP", 1_200.) ]);
          Alcotest.test_case "vliw4 passes" `Quick
            (test_pass_allocation "vliw4"
               [ ("INITTIME", 28_000.); ("PLACEPROP", 6_100.); ("LOAD", 1_000.);
                 ("PLACE", 6_200.); ("PATH", 1_800.); ("COMM", 8_000.); ("EMPHCP", 1_000.);
                 ("NOISE", 3_300.); ("FIRST", 1_000.) ]);
        ] );
    ]
