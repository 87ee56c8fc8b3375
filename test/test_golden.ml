(* Golden schedules: fingerprints per scenario, pinned in
   test/golden/schedules.txt, so any change to a pass, the dependence
   graph or the weight kernels that moves a single output bit fails
   here.

   A schedule line [<scenario> <cycles> <hash>] hashes (FNV-1a-64)
   what the scheduler hands on:

   - the cluster assignment (the driver's, or the baseline schedule's
     for non-convergent scenarios);
   - the driver's preferred time slots (empty for baselines);
   - the schedule's makespan in cycles, also kept in clear in the file.

   Every scenario whose scheduler is convergent also has a telemetry
   line [telemetry/<scenario> <samples> <hash>]: the number of per-pass
   telemetry samples the driver's observer saw, and the FNV-1a-64 of
   the [Schedule.pp] text's hash followed by each pass's (name, churn,
   mean-confidence bits, mean-entropy bits). Floats enter as raw bits,
   so the comparison is exact, never epsilon.

   Scenarios: the Table 1 suites (Raw suite on raw16, VLIW suite on
   vliw4, Table 1 sequences, default seed), the fuzzer's seeds 0..200
   ([Cs_check.Gen.case]), the same seeds on fault-injected machines
   ([Cs_check.Gen.case_degraded], named [degraded/<seed>/<shape>], run
   with no deadline and no pass budget; the only lines where degraded
   mesh routing runs) and the regression corpus (test/corpus/*.repro,
   named [corpus/<file>]).

   The file is only regenerated on purpose, when a change of output is
   intended, from the repository root:

     dune exec test/test_golden.exe -- regen > test/golden/schedules.txt *)

open Cs_core

let golden_path = "golden/schedules.txt"
(* Tests run in the test directory, [regen] from the repository root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
let seed_hi = 200
let telemetry_prefix = "telemetry/"

type entry = { name : string; cycles : int; hash : int64 }

(* What one scenario run hands on; [sched_hash] and [samples] stay
   empty for baselines, which never run the convergent driver. *)
type outcome = {
  assignment : int array;
  slots : int array;
  makespan : int;
  sched_hash : int64;
  samples : string list;
}

let fingerprint o =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Scenario.fnv1a
    (Printf.sprintf "assignment=%s;preferred_slot=%s;cycles=%d" (ints o.assignment)
       (ints o.slots) o.makespan)

let telemetry_fingerprint o =
  Scenario.fnv1a
    (Printf.sprintf "schedule=%016Lx;%s" o.sched_hash (String.concat ";" o.samples))

(* The observer recounts each pass's churn over all rows (the first
   pass counts as 0), independently of the driver's count over the rows
   the pass wrote, and the two must agree. *)
let convergent ?seed ~machine ~passes region =
  let samples = ref [] and prev = ref [||] and churns = ref [] in
  let observe name w =
    let after = Array.init (Weights.n w) (Weights.preferred_cluster w) in
    let churn = ref 0 in
    if Array.length !prev > 0 then
      Array.iteri (fun i c -> if c <> !prev.(i) then incr churn) after;
    if Array.length !prev > 0 then churns := !churn :: !churns;
    prev := after;
    samples :=
      Printf.sprintf "%s,%d,%016Lx,%016Lx" name !churn
        (Int64.bits_of_float (Telemetry.mean_confidence w))
        (Int64.bits_of_float (Telemetry.mean_row_entropy w))
      :: !samples
  in
  let r = Driver.run ?seed ~observe ~machine region passes in
  (match r.Driver.trace with
  | [] -> ()
  | _ :: steps ->
    let counted = List.map (fun (s : Trace.step) -> s.Trace.changed) steps in
    if counted <> List.rev !churns then
      Alcotest.failf "driver churn %s, recounted %s"
        (String.concat "," (List.map string_of_int counted))
        (String.concat "," (List.map string_of_int (List.rev !churns))));
  let sched =
    Cs_sim.Pipeline.schedule_raw ?seed ~passes ~scheduler:Cs_sim.Pipeline.Convergent
      ~machine region
  in
  {
    assignment = r.Driver.assignment;
    slots = r.Driver.preferred_slot;
    makespan = Cs_sched.Schedule.makespan sched;
    sched_hash = Scenario.fnv1a (Format.asprintf "%a" Cs_sched.Schedule.pp sched);
    samples = List.rev !samples;
  }

(* A scenario's lines: its schedule line, then its telemetry line when
   [telemetry]. A refusal is output too: both lines pin its text. *)
let entries_of ~telemetry name run =
  let sched, tel =
    match Cs_resil.Error.protect run with
    | Ok o ->
      ((o.makespan, fingerprint o), (List.length o.samples, telemetry_fingerprint o))
    | Error e ->
      let hash = Scenario.fnv1a ("error=" ^ Cs_resil.Error.to_string e) in
      ((-1, hash), (-1, hash))
  in
  let entry name (cycles, hash) = { name; cycles; hash } in
  entry name sched :: (if telemetry then [ entry (telemetry_prefix ^ name) tel ] else [])

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
  List.concat_map
    (fun (e : Cs_workloads.Suite.entry) ->
      let region = e.generate ~clusters:(Cs_machine.Machine.n_clusters machine) () in
      entries_of ~telemetry:true
        (Printf.sprintf "table1/%s/%s" machine_name e.name)
        (fun () -> convergent ~machine ~passes region))
    suite

(* How a checker scenario schedules: the convergent driver with a pass
   sequence, or a baseline. *)
let scenario_run (sc : Cs_check.Scenario.t) machine =
  match sc.Cs_check.Scenario.spec with
  | Cs_check.Scenario.Passes passes -> `Convergent passes
  | Cs_check.Scenario.Baseline Cs_sim.Pipeline.Convergent ->
    `Convergent (Cs_sim.Pipeline.default_passes ~machine)
  | Cs_check.Scenario.Baseline scheduler -> `Baseline scheduler

let scenario_entries name (sc : Cs_check.Scenario.t) =
  let machine = Cs_check.Scenario.scheduling_machine sc in
  let seed = sc.Cs_check.Scenario.seed and region = sc.Cs_check.Scenario.region in
  match scenario_run sc machine with
  | `Convergent passes ->
    entries_of ~telemetry:true name (fun () -> convergent ~seed ~machine ~passes region)
  | `Baseline scheduler ->
    entries_of ~telemetry:false name (fun () ->
        let sched = Cs_sim.Pipeline.schedule_raw ~seed ~scheduler ~machine region in
        {
          assignment = Cs_sched.Schedule.assignment sched;
          slots = [||];
          makespan = Cs_sched.Schedule.makespan sched;
          sched_hash = 0L;
          samples = [];
        })

(* The fuzzer's healthy and fault-injected draws: [gen/...] lines come
   from [Gen.case], [degraded/...] lines from [Gen.case_degraded]. *)
let families = [ ("gen", fun seed -> Cs_check.Gen.case ~seed);
                 ("degraded", fun seed -> Cs_check.Gen.case_degraded ~seed) ]

let seed_case family seed =
  let sc = (List.assoc family families) seed in
  scenario_entries (Printf.sprintf "%s/%d/%s" family seed sc.Cs_check.Scenario.label) sc

(* Each seed runs once, however many test cases read its lines. *)
let seed_runs =
  List.map
    (fun (family, _) ->
      (family, Array.init (seed_hi + 1) (fun seed -> lazy (seed_case family seed))))
    families
let seed_range family lo hi =
  let runs = List.assoc family seed_runs in
  List.concat (List.init (hi - lo + 1) (fun k -> Lazy.force runs.(lo + k)))

let corpus () =
  match Cs_check.Repro.load_dir corpus_dir with
  | [] -> failwith ("no .repro files under " ^ corpus_dir)
  | repros ->
    List.map
      (fun (path, loaded) ->
        let file = Filename.basename path in
        match loaded with
        | Ok r -> (file, r.Cs_check.Repro.scenario)
        | Error msg -> failwith (Printf.sprintf "%s does not parse: %s" file msg))
      repros

let corpus_entries (file, sc) = scenario_entries ("corpus/" ^ file) sc

let is_telemetry e = String.starts_with ~prefix:telemetry_prefix e.name
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
     #   dune exec test/test_golden.exe -- regen > test/golden/schedules.txt\n\
     # telemetry/<scenario> lines: per-pass sample count, FNV-1a-64 of the\n\
     # Schedule.pp text's hash and each pass's (name, churn, mean-confidence\n\
     # bits, mean-entropy bits).\n";
  let all =
    table1 "raw16" @ table1 "vliw4" @ seed_range "gen" 0 seed_hi
    @ List.concat_map corpus_entries (corpus ())
    @ seed_range "degraded" 0 seed_hi
  in
  let telemetry, schedules = List.partition is_telemetry all in
  List.iter (fun e -> print_endline (line e)) (schedules @ telemetry)

(* Seed blocks: schedule lines are checked 50 seeds to a case and
   telemetry lines 25 to a case; a block of both sizes checks both. *)
let seed_cases check family =
  let ranges block =
    List.init
      ((seed_hi / block) + 1)
      (fun k ->
        let lo = k * block in
        (lo, min seed_hi (lo + block - 1)))
  in
  let schedules = ranges 50 and telemetry = ranges 25 in
  List.map
    (fun ((lo, hi) as r) ->
      let wanted e = List.mem r (if is_telemetry e then telemetry else schedules) in
      Alcotest.test_case (Printf.sprintf "seeds %d..%d" lo hi) `Quick (fun () ->
          check (List.filter wanted (seed_range family lo hi))))
    (List.sort_uniq compare (schedules @ telemetry))

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "regen" then regen ()
  else begin
    let golden = load () in
    let check = check_entries golden in
    let corpus = corpus () in
    let seeded =
      List.concat_map (fun (_, case) -> List.init (seed_hi + 1) case) families
    in
    let n_convergent =
      List.length
        (List.filter
           (fun sc ->
             match scenario_run sc (Cs_check.Scenario.scheduling_machine sc) with
             | `Convergent _ -> true
             | `Baseline _ -> false)
           (seeded @ List.map snd corpus))
    in
    let n_table1 =
      List.length Cs_workloads.Suite.raw_suite + List.length Cs_workloads.Suite.vliw_suite
    in
    Alcotest.run "golden-schedules"
      [ ( "table1",
          [ Alcotest.test_case "raw16" `Quick (fun () -> check (table1 "raw16"));
            Alcotest.test_case "vliw4" `Quick (fun () -> check (table1 "vliw4")) ] );
        ("fuzz-seeds", seed_cases check "gen");
        ("degraded-seeds", seed_cases check "degraded");
        ( "corpus",
          List.map
            (fun ((file, _) as c) ->
              Alcotest.test_case file `Quick (fun () -> check (corpus_entries c)))
            corpus );
        ( "coverage",
          [ Alcotest.test_case "one entry per scenario" `Quick (fun () ->
                Alcotest.(check int) "golden entries"
                  ((2 * n_table1) + List.length seeded + List.length corpus + n_convergent)
                  (List.length golden)) ] ) ]
  end
