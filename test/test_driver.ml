(* Tests for the convergent driver, sequences and traces. *)

open Cs_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()
let raw16 = Cs_machine.Raw.with_tiles 16

let jacobi4 = (Option.get (Cs_workloads.Suite.find "jacobi")).Cs_workloads.Suite.generate ~clusters:4 ()

let test_trace_matches_passes () =
  let passes = Sequence.vliw_default () in
  let result = Driver.run ~machine:vliw4 jacobi4 passes in
  check_int "one step per pass" (List.length passes) (List.length result.Driver.trace);
  List.iter2
    (fun p s -> Alcotest.(check string) "names line up" p.Pass.name s.Trace.pass_name)
    passes result.Driver.trace

let test_preplaced_forced_home () =
  let result = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  List.iter
    (fun (i, home) -> check_int "home" home result.Driver.assignment.(i))
    (Cs_ddg.Graph.preplaced jacobi4.Cs_ddg.Region.graph)

let test_assignment_in_range () =
  let result = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  Array.iter (fun c -> check_bool "cluster valid" true (c >= 0 && c < 4)) result.Driver.assignment

let test_preferred_slot_in_range () =
  let result = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  Array.iter
    (fun t -> check_bool "slot valid" true (t >= 0 && t < result.Driver.context.Context.nt))
    result.Driver.preferred_slot

let test_deterministic_same_seed () =
  let r1 = Driver.run ~seed:17 ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let r2 = Driver.run ~seed:17 ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  Alcotest.(check (array int)) "same assignment" r1.Driver.assignment r2.Driver.assignment

let test_weights_normalized_at_end () =
  let result = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  check_bool "invariants hold" true (Weights.Inspect.check_invariants result.Driver.weights = Ok ())

let test_observe_called_per_pass () =
  let count = ref 0 in
  let passes = Sequence.vliw_default () in
  ignore (Driver.run ~observe:(fun _ _ -> incr count) ~machine:vliw4 jacobi4 passes);
  check_int "observe per pass" (List.length passes) !count

let test_cap_bounds_occupancy () =
  let result = Driver.run ~machine:raw16 (Cs_workloads.Life.generate ~clusters:16 ())
      (Sequence.raw_default ()) in
  let n = Array.length result.Driver.assignment in
  let cpl = Cs_ddg.Analysis.cpl result.Driver.context.Context.analysis in
  let cap =
    int_of_float (ceil (1.1 *. max (float_of_int n /. 16.0) (float_of_int cpl)))
  in
  let occ = Array.make 16 0 in
  Array.iter (fun c -> occ.(c) <- occ.(c) + 1) result.Driver.assignment;
  (* Preplaced instructions are exempt from the cap; bound is cap plus
     the largest per-cluster preplacement count. *)
  let pre = Array.make 16 0 in
  List.iter (fun (_, c) -> pre.(c) <- pre.(c) + 1)
    (Cs_ddg.Graph.preplaced (Cs_ddg.Analysis.graph result.Driver.context.Context.analysis));
  Array.iteri
    (fun c o -> check_bool "occupancy bounded" true (o <= cap + pre.(c)))
    occ

let test_iterative_observe_fires_per_pass_per_round () =
  let count = ref 0 in
  let passes = Sequence.vliw_default () in
  let _, rounds =
    Driver.run_iterative
      ~observe:(fun _ _ -> incr count)
      ~max_rounds:3 ~epsilon:0.0 ~machine:vliw4 jacobi4 passes
  in
  check_int "epsilon 0 never converges early" 3 rounds;
  check_int "observe once per pass per round" (3 * List.length passes) !count

let test_iterative_trace_concatenates_rounds_in_order () =
  let passes = Sequence.vliw_default () in
  let result, rounds =
    Driver.run_iterative ~max_rounds:3 ~epsilon:0.0 ~machine:vliw4 jacobi4 passes
  in
  let names = List.map (fun p -> p.Pass.name) passes in
  check_int "trace covers every round" (rounds * List.length passes)
    (List.length result.Driver.trace);
  List.iteri
    (fun k s ->
      Alcotest.(check string) "round-major pass order"
        (List.nth names (k mod List.length names))
        s.Trace.pass_name)
    result.Driver.trace

let test_empty_pass_list () =
  let result = Driver.run ~machine:vliw4 jacobi4 [] in
  check_int "no trace" 0 (List.length result.Driver.trace);
  check_int "assignment sized" (Cs_ddg.Region.n_instrs jacobi4)
    (Array.length result.Driver.assignment)

(* --- Pass quarantine --- *)

(* The rolled-back steps of a run: which pass, in which round, and why. *)
let quarantined result =
  List.filter_map
    (fun (s : Trace.step) ->
      Option.map (fun reason -> (s.Trace.pass_name, s.Trace.round, reason)) s.Trace.quarantine)
    result.Driver.trace

let quarantine_names result = List.map (fun (name, _, _) -> name) (quarantined result)

let test_quarantine_raising_pass () =
  (* CHAOS mode 4 raises Failure mid-sequence: the driver must roll the
     matrix back, record the quarantine, and finish the run as if the
     pass had never existed. *)
  let clean = Driver.run ~seed:3 ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let passes = Sequence.vliw_default () @ [ Chaos.pass ~mode:4 () ] in
  let result = Driver.run ~seed:3 ~machine:vliw4 jacobi4 passes in
  Alcotest.(check (list string)) "one quarantine" [ "CHAOS" ] (quarantine_names result);
  check_int "trace still covers every pass" (List.length passes)
    (List.length result.Driver.trace);
  Alcotest.(check (array int)) "assignment as if absent" clean.Driver.assignment
    result.Driver.assignment

let test_quarantine_invariant_violation () =
  (* Mode 3 clobbers preplaced rows' home-cluster mass: it returns
     normally but the post-pass gate must catch and roll it back. *)
  let passes = Sequence.vliw_default () @ [ Chaos.pass ~mode:3 () ] in
  let result = Driver.run ~machine:vliw4 jacobi4 passes in
  (match quarantined result with
  | [ (name, _, reason) ] ->
    Alcotest.(check string) "pass name" "CHAOS" name;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    check_bool "reason names the broken invariant" true
      (contains reason "preplaced")
  | qs -> Alcotest.failf "expected one quarantine, got %d" (List.length qs));
  (* The hard constraint survived the attack. *)
  List.iter
    (fun (i, c) -> check_int "preplaced home" c result.Driver.assignment.(i))
    (Cs_ddg.Graph.preplaced jacobi4.Cs_ddg.Region.graph)

let test_quarantine_soft_corruption_recovers () =
  (* Mode 2 zeroes every row: normalization resets rows to uniform, so
     the matrix stays valid and no quarantine fires — corruption that
     renormalization absorbs is degradation, not misbehavior. *)
  let passes = [ Chaos.pass ~mode:2 () ] in
  let result = Driver.run ~machine:vliw4 jacobi4 passes in
  check_int "no quarantine" 0 (List.length (quarantined result));
  check_bool "matrix valid" true
    (Weights.Inspect.check_invariants result.Driver.weights = Ok ())

let test_quarantine_per_round () =
  let passes = Sequence.vliw_default () @ [ Chaos.pass ~mode:0 () ] in
  let result, rounds =
    Driver.run_iterative ~max_rounds:3 ~epsilon:0.0 ~machine:vliw4 jacobi4 passes
  in
  check_int "one quarantine per round" rounds (List.length (quarantined result));
  List.iteri
    (fun k (_, round, _) -> check_int "round recorded" (k + 1) round)
    (quarantined result)

let test_rollback_restores_exact_bits () =
  (* The dirty-row rollback must leave the matrix *bit*-identical to a
     run where the quarantined pass never existed — across every CHAOS
     flavor: raise-before-write (4), raise-mid-write (0, 1), and
     return-normally-but-corrupt (3). *)
  let clean = Driver.run ~seed:3 ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let wc = clean.Driver.weights in
  List.iter
    (fun mode ->
      let result =
        Driver.run ~seed:3 ~machine:vliw4 jacobi4
          (Sequence.vliw_default () @ [ Chaos.pass ~mode () ])
      in
      check_int (Printf.sprintf "mode %d quarantined" mode) 1
        (List.length (quarantined result));
      let wr = result.Driver.weights in
      for i = 0 to Weights.n wc - 1 do
        for c = 0 to Weights.nc wc - 1 do
          for t = 0 to Weights.nt wc - 1 do
            check_bool
              (Printf.sprintf "mode %d entry (%d,%d,%d) bit-identical" mode i c t)
              true
              (Weights.get wr i c t = Weights.get wc i c t)
          done
        done
      done)
    [ 0; 1; 3; 4 ]

let test_pass_dirties_exactly_written_rows () =
  let ctx = Context.make ~machine:vliw4 jacobi4 in
  let n = Context.n_instrs ctx in
  let w = Weights_ref.uniform ~n ~nc:(Context.n_clusters ctx) ~nt:ctx.Context.nt in
  (* FIRST scales cluster 0 of every row: n rows written, n rows dirty. *)
  (First.pass ()).Pass.apply ctx w;
  check_int "FIRST dirties every row" n (Weights_ref.touched_count w);
  Weights_ref.clear_touched w;
  (* ... but a factor of 1.0 writes nothing, so nothing is dirty. *)
  (First.pass ~factor:1.0 ()).Pass.apply ctx w;
  check_int "no-op FIRST dirties none" 0 (Weights_ref.touched_count w);
  (* PLACE writes exactly the preplaced + live-in-home rows. *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Context.home_of ctx i <> None then incr k
  done;
  (Place.pass ()).Pass.apply ctx w;
  check_int "PLACE dirties exactly the anchored rows" !k (Weights_ref.touched_count w)

let test_no_quarantines_on_default_sequences () =
  let r1 = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let r2 = Driver.run ~machine:raw16 (Cs_workloads.Life.generate ~clusters:16 ())
      (Sequence.raw_default ()) in
  check_int "vliw clean" 0 (List.length (quarantined r1));
  check_int "raw clean" 0 (List.length (quarantined r2))

(* A quarantined pass in the *middle* of the raw sequence: its trace
   step must report no churn (the rolled-back rows are back to their
   pre-pass bits), every later step must churn exactly as in the clean
   run, and the converge telemetry must count each step's churn against
   the pre-pass preferences. Mode 3 returns normally and is caught by
   the gate; mode 4 raises before writing anything. *)
let test_quarantine_mid_sequence_churn () =
  let region = (Option.get (Cs_workloads.Suite.find "jacobi")).Cs_workloads.Suite.generate
      ~clusters:16 ()
  in
  let clean = Driver.run ~seed:5 ~machine:raw16 region (Sequence.raw_default ()) in
  let steps r = List.map (fun (s : Trace.step) -> (s.Trace.pass_name, s.Trace.changed)) r in
  let mid = List.length (Sequence.raw_default ()) / 2 in
  List.iter
    (fun mode ->
      let passes =
        List.concat
          (List.mapi
             (fun k p -> if k = mid then [ Chaos.pass ~mode (); p ] else [ p ])
             (Sequence.raw_default ()))
      in
      Cs_obs.Obs.reset ();
      Cs_obs.Obs.enable ();
      let result =
        Fun.protect ~finally:Cs_obs.Obs.disable (fun () ->
            Driver.run ~seed:5 ~machine:raw16 region passes)
      in
      let churns =
        List.filter_map
          (fun (e : Cs_obs.Obs.event) ->
            if e.Cs_obs.Obs.cat = "converge" then
              match List.assoc_opt "churn" e.Cs_obs.Obs.args with
              | Some (Cs_obs.Obs.Float f) -> Some (int_of_float f)
              | _ -> None
            else None)
          (Cs_obs.Obs.events ())
      in
      Cs_obs.Obs.reset ();
      let label = Printf.sprintf "mode %d" mode in
      Alcotest.(check (list string)) (label ^ " quarantined") [ "CHAOS" ]
        (quarantine_names result);
      let got = steps result.Driver.trace in
      Alcotest.(check (pair string int)) (label ^ " quarantined step churn") ("CHAOS", 0)
        (List.nth got mid);
      Alcotest.(check (list (pair string int))) (label ^ " other steps as clean")
        (steps clean.Driver.trace)
        (List.filteri (fun k _ -> k <> mid) got);
      Alcotest.(check (list int)) (label ^ " telemetry churn = trace churn")
        (List.map snd got) churns;
      Alcotest.(check (array int)) (label ^ " assignment as clean") clean.Driver.assignment
        result.Driver.assignment;
      match Cs_sim.Pipeline.schedule_resilient ~seed:5 ~passes ~machine:raw16 region with
      | Error e -> Alcotest.failf "%s: %s" label (Cs_resil.Error.to_string e)
      | Ok (_, o) ->
        Alcotest.(check (list (pair string string))) (label ^ " outcome = quarantined steps")
          (List.map (fun (name, _, reason) -> (name, reason)) (quarantined result))
          o.Cs_resil.Outcome.quarantined)
    [ 3; 4 ]

(* --- Fused INITTIME and the undo log --- *)

let table1 =
  List.map
    (fun (e : Cs_workloads.Suite.entry) ->
      ("raw16/" ^ e.Cs_workloads.Suite.name, raw16, e.Cs_workloads.Suite.generate ~clusters:16 ()))
    Cs_workloads.Suite.raw_suite
  @ List.map
      (fun (e : Cs_workloads.Suite.entry) ->
        ("vliw4/" ^ e.Cs_workloads.Suite.name, vliw4, e.Cs_workloads.Suite.generate ~clusters:4 ()))
      Cs_workloads.Suite.vliw_suite

(* Random DAGs on random machines: the fuzzer's healthy cases. *)
let random_dags =
  List.init 24 (fun seed ->
      let sc = Cs_check.Gen.case ~seed in
      ( Printf.sprintf "fuzz%d/%s" seed sc.Cs_check.Scenario.label,
        sc.Cs_check.Scenario.machine,
        sc.Cs_check.Scenario.region ))

let default_sequence machine =
  if Cs_machine.Machine.is_mesh machine then Sequence.raw_default ()
  else Sequence.vliw_default ()

(* The first difference between two matrices, bit for bit: entries, the
   marginals, live windows and touched flags. *)
let matrix_diff a b =
  let bits = Int64.bits_of_float in
  let diff = ref None in
  let note fmt = Printf.ksprintf (fun m -> if !diff = None then diff := Some m) fmt in
  if (Weights.n a, Weights.nc a, Weights.nt a) <> (Weights.n b, Weights.nc b, Weights.nt b)
  then note "dimensions"
  else
    for i = 0 to Weights.n a - 1 do
      if Weights.Inspect.window a i <> Weights.Inspect.window b i then note "row %d window" i;
      if Weights.is_touched a i <> Weights.is_touched b i then note "row %d touched flag" i;
      if bits (Weights.row_total a i) <> bits (Weights.row_total b i) then note "row %d total" i;
      for c = 0 to Weights.nc a - 1 do
        if bits (Weights.cluster_weight a i c) <> bits (Weights.cluster_weight b i c) then
          note "row %d cluster sum %d" i c;
        for t = 0 to Weights.nt a - 1 do
          if bits (Weights.get a i c t) <> bits (Weights.get b i c t) then
            note "entry (%d,%d,%d)" i c t
        done
      done
    done;
  !diff

let check_same_matrix label a b =
  match matrix_diff a b with
  | None -> ()
  | Some d -> Alcotest.failf "%s: matrices differ at %s" label d

let test_create_windowed_is_inittime () =
  List.iter
    (fun (label, machine, region) ->
      let ctx = Context.make ~machine region in
      let nc = Context.n_clusters ctx and nt = ctx.Context.nt in
      let lo, hi = Inittime.windows ctx in
      let fused = Weights.create_windowed ~nc ~nt ~lo ~hi in
      let w = Weights_ref.uniform ~n:(Context.n_instrs ctx) ~nc ~nt in
      Inittime.apply ctx w;
      check_bool (label ^ " gate passes") true (Weights.normalize_validate_touched w = Ok ());
      check_same_matrix label fused w)
    (table1 @ random_dags)

(* INITTIME as a closure of its own: the driver no longer recognises it,
   so the sequence takes the general path. *)
let general_inittime passes =
  List.map
    (fun p ->
      if p.Pass.apply == Inittime.apply then
        { p with Pass.apply = (fun ctx w -> Inittime.apply ctx w) }
      else p)
    passes

(* Every event a run emits about a pass is derived from its trace step:
   the k-th "pass" span and the k-th per-pass "converge" counter carry
   the k-th step's name, round, time and churn, and the "resil"
   quarantine instants are exactly the rolled-back steps. *)
let check_views_of_trace result events =
  let of_cat cat = List.filter (fun (e : Cs_obs.Obs.event) -> e.Cs_obs.Obs.cat = cat) events in
  let spans = of_cat "pass" in
  let counters =
    List.filter (fun (e : Cs_obs.Obs.event) -> e.Cs_obs.Obs.name <> "converge:round")
      (of_cat "converge")
  in
  let steps = result.Driver.trace in
  check_int "one pass span per step" (List.length steps) (List.length spans);
  check_int "one converge counter per step" (List.length steps) (List.length counters);
  let arg e key = List.assoc_opt key e.Cs_obs.Obs.args in
  List.iteri
    (fun k ((s : Trace.step), (span, counter)) ->
      let label = Printf.sprintf "step %d (%s)" k s.Trace.pass_name in
      Alcotest.(check string) (label ^ " span name") s.Trace.pass_name span.Cs_obs.Obs.name;
      check_bool (label ^ " span round") true
        (arg span "round" = Some (Cs_obs.Obs.Int s.Trace.round));
      check_bool (label ^ " span dur = elapsed_s") true
        (span.Cs_obs.Obs.ph = Cs_obs.Obs.Complete s.Trace.elapsed_s);
      Alcotest.(check string) (label ^ " counter name") ("converge:" ^ s.Trace.pass_name)
        counter.Cs_obs.Obs.name;
      List.iter
        (fun (key, v) ->
          check_bool (label ^ " counter " ^ key) true
            (arg counter key = Some (Cs_obs.Obs.Float v)))
        [ ("round", float_of_int s.Trace.round);
          ("churn", float_of_int s.Trace.changed);
          ("churn_fraction", Trace.changed_fraction s) ])
    (List.combine steps (List.combine spans counters));
  let instants =
    List.filter_map
      (fun (e : Cs_obs.Obs.event) ->
        match (e.Cs_obs.Obs.ph, arg e "pass", arg e "round", arg e "reason") with
        | Cs_obs.Obs.Instant, Some (Cs_obs.Obs.Str p), Some (Cs_obs.Obs.Int r),
          Some (Cs_obs.Obs.Str why)
          when e.Cs_obs.Obs.name = "quarantine" ->
          Some (p, r, why)
        | _ -> None)
      (of_cat "resil")
  in
  Alcotest.(check (list (triple string int string)))
    "quarantine instants = quarantined steps" (quarantined result) instants

(* Everything a run reports: the trace, the quarantines (reasons name
   measured times, so only who and when), the convergence telemetry,
   what [observe] saw, the extraction and the final matrix. The events
   are checked against the trace on the way. *)
let observed_run run =
  let seen = ref [] in
  let observe name w =
    seen := (name, Array.init (Weights.n w) (Weights.preferred_cluster w)) :: !seen
  in
  Cs_obs.Obs.reset ();
  Cs_obs.Obs.enable ();
  let result = Fun.protect ~finally:Cs_obs.Obs.disable (fun () -> run ~observe) in
  let events = Cs_obs.Obs.events () in
  Cs_obs.Obs.reset ();
  check_views_of_trace result events;
  let telemetry =
    List.filter_map
      (fun (e : Cs_obs.Obs.event) ->
        if e.Cs_obs.Obs.cat = "converge" then Some (e.Cs_obs.Obs.name, e.Cs_obs.Obs.args)
        else None)
      events
  in
  (result, telemetry, List.rev !seen)

let check_same_run label (a, ta, sa) (b, tb, sb) =
  let steps r =
    List.map
      (fun (s : Trace.step) -> (s.Trace.pass_name, s.Trace.changed))
      r.Driver.trace
  in
  let quarantines r = List.map (fun (name, round, _) -> (name, round)) (quarantined r) in
  Alcotest.(check (list (pair string int))) (label ^ " trace") (steps b) (steps a);
  Alcotest.(check (list (pair string int))) (label ^ " quarantines") (quarantines b)
    (quarantines a);
  check_bool (label ^ " timed out") b.Driver.timed_out a.Driver.timed_out;
  check_bool (label ^ " telemetry") true (ta = tb);
  check_bool (label ^ " observe") true (sa = sb);
  Alcotest.(check (array int)) (label ^ " assignment") b.Driver.assignment a.Driver.assignment;
  Alcotest.(check (array int)) (label ^ " slots") b.Driver.preferred_slot
    a.Driver.preferred_slot;
  check_same_matrix label a.Driver.weights b.Driver.weights

(* The fused INITTIME against the general path on every Table 1 region
   and on random DAGs: plainly, with every pass overrunning its budget
   (INITTIME rolls back to the uniform matrix), with the deadline
   already expired (INITTIME is skipped), and over two rounds, plainly
   and overrunning. *)
let test_fused_inittime_equals_general () =
  List.iter
    (fun (label, machine, region) ->
      let passes = default_sequence machine in
      let both name run =
        let fused = observed_run (run passes) in
        let general = observed_run (run (general_inittime passes)) in
        check_same_run (label ^ " " ^ name) fused general
      in
      both "run" (fun passes ~observe -> Driver.run ~seed:7 ~observe ~machine region passes);
      both "overrun" (fun passes ~observe ->
          Driver.run ~seed:7 ~observe ~pass_budget_s:(-1.0) ~machine region passes);
      both "expired" (fun passes ~observe ->
          Driver.run ~seed:7 ~observe ~deadline:(Cs_obs.Clock.now () -. 1.0) ~machine region
            passes);
      both "iterative" (fun passes ~observe ->
          fst
            (Driver.run_iterative ~seed:7 ~observe ~max_rounds:2 ~epsilon:0.0 ~machine region
               passes));
      both "iterative overrun" (fun passes ~observe ->
          fst
            (Driver.run_iterative ~seed:7 ~observe ~pass_budget_s:(-1.0) ~max_rounds:2
               ~epsilon:0.0 ~machine region passes)))
    (table1 @ random_dags)

(* Sabotage passes for the rollback property. None draws from the
   context's RNG, so a run without them sees the same random stream. *)
let sabotage_raise_mid_row =
  (* Every row is scaled cluster by cluster; in the first row past the
     middle with mass on its last cluster, that lane's factor is
     negative, so the pass raises after writing the earlier lanes. *)
  Pass.make ~name:"RAISE" ~kind:Pass.Space (fun _ w ->
      let n = Weights.n w and nc = Weights.nc w in
      let target = ref (-1) in
      for i = n - 1 downto n / 2 do
        if Weights.cluster_weight w i (nc - 1) > 0.0 then target := i
      done;
      for i = 0 to n - 1 do
        Weights.scale_clusters w i
          (Array.init nc (fun c ->
               if i = !target && c = nc - 1 then -1.0 else 2.0 +. float_of_int c))
      done;
      failwith "RAISE: no row to raise on")

let widen w =
  (* Blends take the hull of two rows' windows and [set] widens over
     what it stores, so rows become live where they were +0.0. *)
  for i = 1 to Weights.n w - 1 do
    Weights.blend w ~dst:i ~src:(i - 1) ~keep:0.5
  done;
  if Weights.n w > 0 then Weights.set w 0 0 (Weights.nt w - 1) 1.0

let sabotage_widen_then_raise =
  Pass.make ~name:"WIDEN" ~kind:Pass.Spacetime (fun _ w ->
      widen w;
      failwith "WIDEN")

let overrun_budget_s = 0.25

let sabotage_widen_then_overrun =
  Pass.make ~name:"SLOW" ~kind:Pass.Spacetime (fun _ w ->
      widen w;
      let t0 = Cs_obs.Clock.now () in
      while Cs_obs.Clock.since t0 < 2.0 *. overrun_budget_s do
        ignore (Sys.opaque_identity ())
      done)

(* A quarantined pass must leave the matrix exactly as if it had never
   run: the run with it inserted ends bit for bit where the run without
   it does, with the same churn at every other step. Inserting it first
   also rolls it back on top of the general INITTIME path, against the
   fused one. *)
let rollback_run ?pass_budget_s machine region passes =
  observed_run (fun ~observe -> Driver.run ~seed:9 ~observe ?pass_budget_s ~machine region passes)

let check_rollback_is_absence ?pass_budget_s ~clean label machine region sabotage ~at =
  let passes =
    List.concat
      (List.mapi
         (fun k p -> if k = at then [ sabotage; p ] else [ p ])
         (default_sequence machine))
  in
  let r, tr, sr = rollback_run ?pass_budget_s machine region passes in
  let c, tc, sc = clean in
  let label = Printf.sprintf "%s %s at %d" label sabotage.Pass.name at in
  Alcotest.(check (list (pair string int))) (label ^ " quarantined")
    [ (sabotage.Pass.name, 1) ]
    (List.map (fun (name, round, _) -> (name, round)) (quarantined r));
  let drop l = List.filteri (fun k _ -> k <> at) l in
  let steps =
    List.map (fun (s : Trace.step) -> (s.Trace.pass_name, s.Trace.changed)) r.Driver.trace
  in
  Alcotest.(check (pair string int)) (label ^ " no churn") (sabotage.Pass.name, 0)
    (List.nth steps at);
  check_same_run label
    ({ r with Driver.trace = drop r.Driver.trace }, drop tr, drop sr)
    (c, tc, sc)

let test_rollback_is_absence () =
  List.iter
    (fun (label, machine, region) ->
      let mid = List.length (default_sequence machine) / 2 in
      let clean = rollback_run machine region (default_sequence machine) in
      List.iter
        (fun at ->
          check_rollback_is_absence ~clean label machine region sabotage_raise_mid_row ~at;
          check_rollback_is_absence ~clean label machine region sabotage_widen_then_raise ~at;
          (* On one cluster the home lane is the whole row: mode 3
             zeroes it, and the gate resets it to uniform and accepts. *)
          if
            Cs_ddg.Graph.preplaced region.Cs_ddg.Region.graph <> []
            && Cs_machine.Machine.n_clusters machine > 1
          then
            check_rollback_is_absence ~clean label machine region (Chaos.pass ~mode:3 ()) ~at)
        [ 0; 1; mid ])
    (table1 @ random_dags)

let test_overrun_rollback_is_absence () =
  List.iter
    (fun (label, machine, region) ->
      let clean = rollback_run machine region (default_sequence machine) in
      check_rollback_is_absence ~pass_budget_s:overrun_budget_s ~clean label machine region
        sabotage_widen_then_overrun ~at:3)
    (List.filter (fun (l, _, _) -> l = "raw16/jacobi" || l = "vliw4/mxm") table1)

let test_context_rejects_invalid_region () =
  let b = Cs_ddg.Builder.create ~name:"bad" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _l = Cs_ddg.Builder.load b ~preplace:11 addr in
  let region = Cs_ddg.Builder.finish b in
  check_bool "raises" true
    (try
       ignore (Context.make ~machine:vliw4 region);
       false
     with Cs_resil.Error.Error (Cs_resil.Error.Invalid_input _) -> true)

let test_context_nt_is_cpl () =
  let ctx = Context.make ~machine:vliw4 jacobi4 in
  check_int "nt = min cpl cap" (min (Cs_ddg.Analysis.cpl ctx.Context.analysis) 512)
    ctx.Context.nt

let test_context_nt_cap () =
  let region = Cs_workloads.Sha.generate ~scale:4 ~clusters:4 () in
  let ctx = Context.make ~nt_cap:64 ~machine:vliw4 region in
  check_int "capped" 64 ctx.Context.nt

let test_trace_space_steps_filter () =
  let result = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let space = Trace.space_steps result.Driver.trace in
  check_bool "fewer than all" true (List.length space < List.length result.Driver.trace);
  List.iter
    (fun s -> check_bool "no time-only" true (s.Trace.pass_kind <> Pass.Time))
    space

(* --- Sequence registry --- *)

let test_sequence_raw_default_names () =
  Alcotest.(check (list string)) "Table 1a"
    [ "INITTIME"; "PLACEPROP"; "LOAD"; "PLACE"; "PATH"; "PATHPROP"; "LEVEL"; "PATHPROP";
      "COMM"; "PATHPROP"; "EMPHCP" ]
    (Sequence.names (Sequence.raw_default ()))

let test_sequence_vliw_default_names () =
  Alcotest.(check (list string)) "Table 1b + LOADs"
    [ "INITTIME"; "NOISE"; "FIRST"; "PATH"; "LOAD"; "COMM"; "PLACE"; "PLACEPROP"; "LOAD";
      "COMM"; "EMPHCP" ]
    (Sequence.names (Sequence.vliw_default ()))

let test_sequence_of_names_roundtrip () =
  match Sequence.of_names [ "inittime"; "Place"; "COMM" ] with
  | Ok passes ->
    Alcotest.(check (list string)) "parsed" [ "INITTIME"; "PLACE"; "COMM" ]
      (Sequence.names passes)
  | Error e -> Alcotest.fail e

(* Found by the byte fuzz in test_props: a thirteenth significant digit
   used to be dropped by [names], so the token read back as 1. *)
let test_sequence_long_value_roundtrip () =
  let spec = "PATHPROP=blend_keep=0.9999999999999" in
  match Sequence.of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check (list string)) "printed as typed" [ spec ] (Sequence.names [ p ]);
    (match Sequence.of_names (Sequence.names [ p ]) with
    | Ok [ q ] -> check_bool "same parameters" true (q.Pass.params = p.Pass.params)
    | _ -> Alcotest.fail "reparse")

let test_sequence_of_names_unknown () =
  check_bool "unknown rejected" true
    (match Sequence.of_names [ "BOGUS" ] with Error _ -> true | Ok _ -> false)

let test_sequence_available_covers_registry () =
  List.iter
    (fun name -> check_bool name true (Sequence.of_name name <> None))
    Sequence.available

(* --- The parameter schema --- *)

let test_schema_ranges_nest () =
  List.iter
    (fun (d : Pass.decl) ->
      List.iter
        (fun (p : Pass.param) ->
          let label = d.name ^ " " ^ p.key in
          let lo, hi = p.domain and tlo, thi = p.tune in
          check_bool (label ^ " default in tuning range") true
            (tlo <= p.default && p.default <= thi);
          check_bool (label ^ " tuning range in domain") true
            (lo <= tlo && tlo <= thi && thi <= hi);
          check_bool (label ^ " default accepted") true
            (Result.is_ok (Pass.instantiate d [ (p.key, p.default) ])))
        d.params)
    Sequence.registry

(* Each parameter at its domain's bounds and the tuner's extremes, and
   just past each bound (for an integer also one step past, and a
   fraction; for a boolean one half). *)
let probe_values (p : Pass.param) =
  let lo, hi = p.domain and tlo, thi = p.tune in
  let inside = List.sort_uniq compare [ lo; hi; tlo; thi; p.default ] in
  let outside =
    [ Float.pred lo; Float.succ hi ]
    @ (match p.typ with
      | Pass.Int -> [ lo -. 1.0; hi +. 1.0; lo +. 0.5 ]
      | Pass.Bool -> [ 0.5 ]
      | Pass.Float -> [])
  in
  (inside, outside)

let spec_of (d : Pass.decl) (p : Pass.param) v = Printf.sprintf "%s=%s=%.17g" d.name p.key v

let every_probe () =
  List.concat_map
    (fun (d : Pass.decl) -> List.map (fun p -> (d, p, probe_values p)) d.params)
    Sequence.registry

let test_out_of_domain_refused () =
  List.iter
    (fun ((d : Pass.decl), p, (_, outside)) ->
      List.iter
        (fun v ->
          let spec = spec_of d p v in
          check_bool (spec ^ " refused by of_spec") true
            (Result.is_error (Sequence.of_spec spec));
          let req =
            Cs_svc.Proto.request ~machine:"vliw4" ~passes:("INITTIME," ^ spec) "jacobi"
          in
          match (Cs_svc.Job.run (Cs_svc.Job.admit req)).Cs_svc.Proto.verdict with
          | Cs_svc.Proto.Refused { kind; _ } ->
            Alcotest.(check string) (spec ^ " refused by Job.run") "invalid-input" kind
          | Cs_svc.Proto.Scheduled _ -> Alcotest.failf "%s scheduled by Job.run" spec)
        outside)
    (every_probe ())

(* CHAOS is exempt: quarantines are what it is for. *)
let test_in_domain_never_quarantines () =
  List.iter
    (fun ((d : Pass.decl), p, (inside, _)) ->
      if d.name <> "CHAOS" then
        List.iter
          (fun v ->
            let spec = spec_of d p v in
            let passes =
              match Sequence.of_names [ "INITTIME"; spec ] with
              | Ok passes -> passes
              | Error e -> Alcotest.failf "%s refused: %s" spec e
            in
            List.iter
              (fun (label, machine, region) ->
                match quarantined (Driver.run ~machine region passes) with
                | [] -> ()
                | (_, _, reason) :: _ -> Alcotest.failf "%s on %s: %s" spec label reason)
              (table1 @ random_dags))
          inside)
    (every_probe ())

(* --- the per-domain matrix store ------------------------------------ *)

(* [Driver.run] never hands its matrix back, so two live results own
   two stores, even on a domain that holds a spare one (a pipeline run
   leaves one behind): a write to one leaves the other as it was. *)
let test_live_results_private () =
  let passes = Sequence.vliw_default () in
  ignore (Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Convergent ~machine:vliw4 jacobi4);
  let a = Driver.run ~machine:vliw4 jacobi4 passes in
  let b = Driver.run ~machine:vliw4 jacobi4 passes in
  let r, _ = Driver.run_iterative ~machine:vliw4 jacobi4 passes in
  let twin = Weights.copy b.Driver.weights and rtwin = Weights.copy r.Driver.weights in
  let w = a.Driver.weights in
  for i = 0 to Weights.n w - 1 do
    for c = 0 to Weights.nc w - 1 do
      for t = 0 to Weights.nt w - 1 do
        Weights.set w i c t 0.5
      done
    done
  done;
  check_same_matrix "b after writes to a" b.Driver.weights twin;
  check_same_matrix "iterative result after writes to a" r.Driver.weights rtwin

(* One Table 1 region through the resilient pipeline: the schedule as
   printed, the outcome, and the counters it emits (the per-pass
   convergence telemetry and the simulator's). *)
let pipeline_view (machine, region) =
  Cs_obs.Obs.reset ();
  let verdict =
    match Cs_sim.Pipeline.schedule_resilient ~machine region with
    | Ok (sched, o) ->
      Ok
        ( Format.asprintf "%a" Cs_sched.Schedule.pp sched,
          Cs_resil.Outcome.rung_to_string o.Cs_resil.Outcome.rung,
          o.Cs_resil.Outcome.quarantined,
          o.Cs_resil.Outcome.timed_out )
    | Error e -> Error (Cs_resil.Error.to_string e)
  in
  let counters =
    List.filter_map
      (fun (e : Cs_obs.Obs.event) ->
        if e.Cs_obs.Obs.ph = Cs_obs.Obs.Counter then
          Some (e.Cs_obs.Obs.cat, e.Cs_obs.Obs.name, e.Cs_obs.Obs.args)
        else None)
      (Cs_obs.Obs.events ())
  in
  (verdict, counters)

(* raw16 and vliw4 regions interleaved on one domain, each matrix built
   in the store its predecessor released (growing and shrinking), give
   the schedules and telemetry of runs each on a fresh domain, where
   every matrix is a fresh block. *)
let test_store_interleaved_equals_fresh () =
  let raw = List.filter (fun (_, m, _) -> m == raw16) table1
  and vliw = List.filter (fun (_, m, _) -> m == vliw4) table1 in
  let rec interleave a b =
    match (a, b) with
    | x :: a, y :: b -> x :: y :: interleave a b
    | a, [] | [], a -> a
  in
  let regions = interleave raw vliw in
  Cs_obs.Obs.enable ();
  let shared, fresh =
    Fun.protect ~finally:Cs_obs.Obs.disable (fun () ->
        let shared = List.map (fun (_, m, r) -> pipeline_view (m, r)) regions in
        let fresh =
          List.map
            (fun (_, m, r) -> Domain.join (Domain.spawn (fun () -> pipeline_view (m, r))))
            regions
        in
        (shared, fresh))
  in
  Cs_obs.Obs.reset ();
  List.iter2
    (fun (label, _, _) (s, f) ->
      check_bool (label ^ " schedule and outcome") true (fst s = fst f);
      check_bool (label ^ " counters") true (snd s = snd f && snd s <> []))
    regions (List.combine shared fresh)

let () =
  Alcotest.run "cs_core.driver"
    [
      ( "driver",
        [
          Alcotest.test_case "trace matches passes" `Quick test_trace_matches_passes;
          Alcotest.test_case "preplaced forced" `Quick test_preplaced_forced_home;
          Alcotest.test_case "assignment range" `Quick test_assignment_in_range;
          Alcotest.test_case "slot range" `Quick test_preferred_slot_in_range;
          Alcotest.test_case "deterministic" `Quick test_deterministic_same_seed;
          Alcotest.test_case "normalized at end" `Quick test_weights_normalized_at_end;
          Alcotest.test_case "observe hook" `Quick test_observe_called_per_pass;
          Alcotest.test_case "iterative observe hook" `Quick
            test_iterative_observe_fires_per_pass_per_round;
          Alcotest.test_case "iterative trace order" `Quick
            test_iterative_trace_concatenates_rounds_in_order;
          Alcotest.test_case "cap bounds occupancy" `Quick test_cap_bounds_occupancy;
          Alcotest.test_case "empty pass list" `Quick test_empty_pass_list;
          Alcotest.test_case "quarantine raising pass" `Quick test_quarantine_raising_pass;
          Alcotest.test_case "quarantine invariant violation" `Quick
            test_quarantine_invariant_violation;
          Alcotest.test_case "soft corruption recovers" `Quick
            test_quarantine_soft_corruption_recovers;
          Alcotest.test_case "quarantine per round" `Quick test_quarantine_per_round;
          Alcotest.test_case "rollback bit-exact" `Quick test_rollback_restores_exact_bits;
          Alcotest.test_case "quarantine mid sequence churn" `Quick
            test_quarantine_mid_sequence_churn;
          Alcotest.test_case "pass dirties written rows" `Quick
            test_pass_dirties_exactly_written_rows;
          Alcotest.test_case "defaults never quarantined" `Quick
            test_no_quarantines_on_default_sequences;
        ] );
      ( "undo",
        [
          Alcotest.test_case "create_windowed = create + INITTIME + gate" `Quick
            test_create_windowed_is_inittime;
          Alcotest.test_case "fused INITTIME = general path" `Quick
            test_fused_inittime_equals_general;
          Alcotest.test_case "rollback = pass never ran" `Quick test_rollback_is_absence;
          Alcotest.test_case "overrun rollback = pass never ran" `Slow
            test_overrun_rollback_is_absence;
        ] );
      ( "store",
        [
          Alcotest.test_case "live results never share storage" `Quick
            test_live_results_private;
          Alcotest.test_case "interleaved machines = fresh domains" `Quick
            test_store_interleaved_equals_fresh;
        ] );
      ( "context",
        [
          Alcotest.test_case "rejects invalid region" `Quick test_context_rejects_invalid_region;
          Alcotest.test_case "nt = cpl" `Quick test_context_nt_is_cpl;
          Alcotest.test_case "nt cap" `Quick test_context_nt_cap;
        ] );
      ( "trace",
        [ Alcotest.test_case "space filter" `Quick test_trace_space_steps_filter ] );
      ( "sequence",
        [
          Alcotest.test_case "raw names" `Quick test_sequence_raw_default_names;
          Alcotest.test_case "vliw names" `Quick test_sequence_vliw_default_names;
          Alcotest.test_case "of_names roundtrip" `Quick test_sequence_of_names_roundtrip;
          Alcotest.test_case "long value round-trips" `Quick test_sequence_long_value_roundtrip;
          Alcotest.test_case "of_names unknown" `Quick test_sequence_of_names_unknown;
          Alcotest.test_case "available consistent" `Quick test_sequence_available_covers_registry;
        ] );
      ( "schema",
        [
          Alcotest.test_case "default in tuning range in domain" `Quick
            test_schema_ranges_nest;
          Alcotest.test_case "out of domain refused" `Quick test_out_of_domain_refused;
          Alcotest.test_case "in domain never quarantines" `Slow
            test_in_domain_never_quarantines;
        ] );
    ]
