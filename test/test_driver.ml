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
  check_bool "invariants hold" true (Weights.check_invariants result.Driver.weights = Ok ())

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

let quarantine_names result =
  List.map (fun (q : Driver.quarantine) -> q.Driver.pass_name) result.Driver.quarantined

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
  (match result.Driver.quarantined with
  | [ q ] ->
    Alcotest.(check string) "pass name" "CHAOS" q.Driver.pass_name;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    check_bool "reason names the broken invariant" true
      (contains q.Driver.reason "preplaced")
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
  check_int "no quarantine" 0 (List.length result.Driver.quarantined);
  check_bool "matrix valid" true (Weights.validate result.Driver.weights = Ok ())

let test_quarantine_per_round () =
  let passes = Sequence.vliw_default () @ [ Chaos.pass ~mode:0 () ] in
  let result, rounds =
    Driver.run_iterative ~max_rounds:3 ~epsilon:0.0 ~machine:vliw4 jacobi4 passes
  in
  check_int "one quarantine per round" rounds (List.length result.Driver.quarantined);
  List.iteri
    (fun k (q : Driver.quarantine) -> check_int "round recorded" (k + 1) q.Driver.round)
    result.Driver.quarantined

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
        (List.length result.Driver.quarantined);
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
  let w = Weights.create ~n ~nc:(Context.n_clusters ctx) ~nt:ctx.Context.nt in
  (* FIRST scales cluster 0 of every row: n rows written, n rows dirty. *)
  (First.pass ()).Pass.apply ctx w;
  check_int "FIRST dirties every row" n (Weights.touched_count w);
  Weights.clear_touched w;
  (* ... but a factor of 1.0 writes nothing, so nothing is dirty. *)
  (First.pass ~factor:1.0 ()).Pass.apply ctx w;
  check_int "no-op FIRST dirties none" 0 (Weights.touched_count w);
  (* PLACE writes exactly the preplaced + live-in-home rows. *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Context.home_of ctx i <> None then incr k
  done;
  (Place.pass ()).Pass.apply ctx w;
  check_int "PLACE dirties exactly the anchored rows" !k (Weights.touched_count w)

let test_no_quarantines_on_default_sequences () =
  let r1 = Driver.run ~machine:vliw4 jacobi4 (Sequence.vliw_default ()) in
  let r2 = Driver.run ~machine:raw16 (Cs_workloads.Life.generate ~clusters:16 ())
      (Sequence.raw_default ()) in
  check_int "vliw clean" 0 (List.length r1.Driver.quarantined);
  check_int "raw clean" 0 (List.length r2.Driver.quarantined)

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
        result.Driver.assignment)
    [ 3; 4 ]

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

let test_sequence_of_names_unknown () =
  check_bool "unknown rejected" true
    (match Sequence.of_names [ "BOGUS" ] with Error _ -> true | Ok _ -> false)

let test_sequence_available_covers_registry () =
  List.iter
    (fun name -> check_bool name true (Sequence.of_name name <> None))
    Sequence.available

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
          Alcotest.test_case "of_names unknown" `Quick test_sequence_of_names_unknown;
          Alcotest.test_case "available consistent" `Quick test_sequence_available_covers_registry;
        ] );
    ]
