(* Golden schedules: one fingerprint per scenario, pinned in
   test/golden/schedules.txt, so any change to a pass, the dependence
   graph or the weight kernels that moves a single output bit fails
   here.

   A fingerprint hashes (FNV-1a-64) what the scheduler hands on:

   - the cluster assignment (the driver's, or the baseline schedule's
     for non-convergent scenarios);
   - the driver's preferred time slots (empty for baselines);
   - the schedule's makespan in cycles, also kept in clear in the file.

   Scenarios: the Table 1 suites (Raw suite on raw16, VLIW suite on
   vliw4, Table 1 sequences, default seed) and the fuzzer's seeds
   0..200 ([Cs_check.Gen.case]).

   The file is only regenerated on purpose, when a change of output is
   intended, from the repository root:

     dune exec test/test_golden.exe -- regen > test/golden/schedules.txt *)

open Cs_core

let golden_path = "golden/schedules.txt"
let seed_hi = 200

type entry = { name : string; cycles : int; hash : int64 }

let fingerprint ~assignment ~slots ~cycles =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Scenario.fnv1a
    (Printf.sprintf "assignment=%s;preferred_slot=%s;cycles=%d" (ints assignment)
       (ints slots) cycles)

let convergent ?seed ~machine ~passes region =
  let r = Driver.run ?seed ~machine region passes in
  let sched =
    Cs_sim.Pipeline.schedule_raw ?seed ~passes ~scheduler:Cs_sim.Pipeline.Convergent
      ~machine region
  in
  (r.Driver.assignment, r.Driver.preferred_slot, Cs_sched.Schedule.makespan sched)

let entry_of name run =
  match Cs_resil.Error.protect run with
  | Ok (assignment, slots, cycles) ->
    { name; cycles; hash = fingerprint ~assignment ~slots ~cycles }
  | Error e ->
    (* A refusal is output too: pin its text. *)
    { name; cycles = -1; hash = Scenario.fnv1a ("error=" ^ Cs_resil.Error.to_string e) }

let table1 machine_name =
  let machine =
    match Cs_svc.Proto.machine_of_name machine_name with
    | Ok m -> m
    | Error e -> failwith e
  in
  let suite =
    if Cs_machine.Machine.is_mesh machine then Cs_workloads.Suite.raw_suite
    else Cs_workloads.Suite.vliw_suite
  in
  let passes = Cs_sim.Pipeline.default_passes ~machine in
  List.map
    (fun (e : Cs_workloads.Suite.entry) ->
      let region = e.generate ~clusters:(Cs_machine.Machine.n_clusters machine) () in
      entry_of
        (Printf.sprintf "table1/%s/%s" machine_name e.name)
        (fun () -> convergent ~machine ~passes region))
    suite

let gen_case seed =
  let sc = Cs_check.Gen.case ~seed in
  let machine = Cs_check.Scenario.scheduling_machine sc in
  let seed = sc.Cs_check.Scenario.seed and region = sc.Cs_check.Scenario.region in
  entry_of
    (Printf.sprintf "gen/%d/%s" seed sc.Cs_check.Scenario.label)
    (fun () ->
      match sc.Cs_check.Scenario.spec with
      | Cs_check.Scenario.Passes passes -> convergent ~seed ~machine ~passes region
      | Cs_check.Scenario.Baseline Cs_sim.Pipeline.Convergent ->
        convergent ~seed ~machine ~passes:(Cs_sim.Pipeline.default_passes ~machine) region
      | Cs_check.Scenario.Baseline scheduler ->
        let sched = Cs_sim.Pipeline.schedule_raw ~seed ~scheduler ~machine region in
        (Cs_sched.Schedule.assignment sched, [||], Cs_sched.Schedule.makespan sched))

let gen_range lo hi = List.init (hi - lo + 1) (fun k -> gen_case (lo + k))

let line e = Printf.sprintf "%s %d %016Lx" e.name e.cycles e.hash

let load () =
  In_channel.with_open_text golden_path In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; cycles; hash ] ->
           (name, { name; cycles = int_of_string cycles; hash = Int64.of_string ("0x" ^ hash) })
         | _ -> failwith ("malformed golden line: " ^ l))

let check_entries golden entries =
  List.iter
    (fun e ->
      match List.assoc_opt e.name golden with
      | None -> Alcotest.failf "%s: no golden entry" e.name
      | Some g -> Alcotest.(check string) e.name (line g) (line e))
    entries

let regen () =
  print_string
    "# Golden schedule fingerprints: scenario, makespan, FNV-1a-64 of\n\
     # (assignment, preferred_slot, cycles). Checked by test/test_golden.ml;\n\
     # regenerate only for an intended change of output:\n\
     #   dune exec test/test_golden.exe -- regen > test/golden/schedules.txt\n";
  List.iter
    (fun e -> print_endline (line e))
    (table1 "raw16" @ table1 "vliw4" @ gen_range 0 seed_hi)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "regen" then regen ()
  else begin
    let golden = load () in
    let block = 50 in
    let gen_cases =
      List.init
        ((seed_hi / block) + 1)
        (fun k ->
          let lo = k * block in
          let hi = min seed_hi (lo + block - 1) in
          Alcotest.test_case (Printf.sprintf "seeds %d..%d" lo hi) `Quick (fun () ->
              check_entries golden (gen_range lo hi)))
    in
    Alcotest.run "golden-schedules"
      [ ( "table1",
          [ Alcotest.test_case "raw16" `Quick (fun () ->
                check_entries golden (table1 "raw16"));
            Alcotest.test_case "vliw4" `Quick (fun () ->
                check_entries golden (table1 "vliw4")) ] );
        ("fuzz-seeds", gen_cases);
        ( "coverage",
          [ Alcotest.test_case "one entry per scenario" `Quick (fun () ->
                Alcotest.(check int) "golden entries"
                  (List.length Cs_workloads.Suite.raw_suite
                  + List.length Cs_workloads.Suite.vliw_suite + seed_hi + 1)
                  (List.length golden)) ] ) ]
  end
