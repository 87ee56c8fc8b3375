(* Property-based tests over random regions: every scheduler produces a
   validator-clean schedule whose makespan respects lower bounds. *)

(* QCheck draws shrinking candidates from a Random.State; seeding it
   from Cs_util.Rng (instead of to_alcotest's Random.self_init default)
   makes `dune runtest` bit-reproducible. *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()
let raw4 = Cs_machine.Raw.with_tiles 4

let region_gen =
  (* Seeds and sizes drive the deterministic layered generator. *)
  QCheck.Gen.(
    map2
      (fun seed n -> (seed, 20 + n))
      (int_bound 10_000) (int_bound 120))

let make_region ~banks (seed, n) =
  Cs_workloads.Shapes.layered ~n
    ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:banks)
    ~seed ()

let print_region (seed, n) = Printf.sprintf "seed=%d n=%d" seed n
let arbitrary_region = QCheck.make ~print:print_region region_gen

(* Shape-diverse generator: the paper's thin and fat archetypes and
   CFG-derived trace regions alongside the layered DAGs above. *)
type shape = Layered | Thin | Fat | Cfg

let shape_name = function
  | Layered -> "layered"
  | Thin -> "thin"
  | Fat -> "fat"
  | Cfg -> "cfg"

let shaped_gen =
  QCheck.Gen.(
    map2 (fun shape seed -> (shape, seed))
      (oneofl [ Layered; Thin; Fat; Cfg ])
      (int_bound 10_000))

let print_shaped (shape, seed) = Printf.sprintf "shape=%s seed=%d" (shape_name shape) seed

let arbitrary_shaped = QCheck.make ~print:print_shaped shaped_gen

(* Sizes are kept modest so the full scheduler matrix (including
   simulated annealing) stays fast. *)
let make_shaped ~banks (shape, seed) =
  match shape with
  | Layered ->
    Cs_workloads.Shapes.layered ~n:40
      ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:banks)
      ~seed ()
  | Thin -> Cs_workloads.Shapes.thin ~chains:4 ~length:8 ~cross_links:3 ~seed ()
  | Fat -> Cs_workloads.Shapes.fat ~width:6 ~depth:4 ~seed ()
  | Cfg ->
    let cfg =
      Cs_cfg.Generate.acyclic ~segments:3 ~instrs_per_block:4 ~variables:6 ~banks ~seed ()
    in
    (match
       List.filter (fun r -> Cs_ddg.Region.n_instrs r > 0) (Cs_cfg.Trace.regions cfg)
     with
    | r :: _ -> r
    | [] ->
      Cs_workloads.Shapes.layered ~n:20
        ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:banks)
        ~seed ())

let schedules_validate name machine scheduler =
  QCheck.Test.make ~count:40 ~name arbitrary_region (fun params ->
      let region = make_region ~banks:(Cs_machine.Machine.n_clusters machine) params in
      let sched = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
      (* Pipeline.schedule already validates; re-check and test bounds. *)
      match Cs_sched.Validator.check sched with
      | Error _ -> false
      | Ok () ->
        let a =
          Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine)
            region.Cs_ddg.Region.graph
        in
        Cs_sched.Schedule.makespan sched >= Cs_ddg.Analysis.cpl a)

let prop_convergent_vliw = schedules_validate "convergent/vliw valid + cpl bound" vliw4 Cs_sim.Pipeline.Convergent
let prop_convergent_raw = schedules_validate "convergent/raw valid + cpl bound" raw4 Cs_sim.Pipeline.Convergent
let prop_uas_vliw = schedules_validate "uas/vliw valid + cpl bound" vliw4 Cs_sim.Pipeline.Uas
let prop_rawcc_raw = schedules_validate "rawcc/raw valid + cpl bound" raw4 Cs_sim.Pipeline.Rawcc
let prop_bug_vliw = schedules_validate "bug/vliw valid + cpl bound" vliw4 Cs_sim.Pipeline.Bug

(* The full differential matrix: every scheduler on both machine
   families, judged by the validator, the critical-path bound, and the
   semantic interpreter. This is the in-tree slice of what `csched
   fuzz` sweeps at scale. *)
let prop_scheduler_matrix =
  QCheck.Test.make ~count:10 ~name:"all schedulers x both machines: valid + bounds + semantics"
    arbitrary_shaped (fun params ->
      List.for_all
        (fun machine ->
          let region = make_shaped ~banks:(Cs_machine.Machine.n_clusters machine) params in
          let a =
            Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine)
              region.Cs_ddg.Region.graph
          in
          List.for_all
            (fun scheduler ->
              let sched = Cs_sim.Pipeline.schedule ~seed:7 ~scheduler ~machine region in
              Cs_sched.Validator.check sched = Ok ()
              && Cs_sched.Schedule.makespan sched >= Cs_ddg.Analysis.cpl a
              && Cs_sim.Interp.equivalent region sched = Ok ())
            Cs_sim.Pipeline.all_schedulers)
        [ vliw4; raw4 ])

let prop_single_tile_serializes =
  QCheck.Test.make ~count:25 ~name:"single tile >= instruction count" arbitrary_region
    (fun params ->
      let region = make_region ~banks:1 params in
      let machine = Cs_machine.Raw.with_tiles 1 in
      let sched = Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Rawcc ~machine region in
      Cs_sched.Schedule.makespan sched >= Cs_ddg.Region.n_instrs region)

let prop_assignment_respects_preplacement =
  QCheck.Test.make ~count:40 ~name:"convergent assignment respects preplacement"
    arbitrary_region (fun params ->
      let region = make_region ~banks:4 params in
      let result =
        Cs_core.Driver.run ~machine:raw4 region (Cs_core.Sequence.raw_default ())
      in
      List.for_all
        (fun (i, home) -> result.Cs_core.Driver.assignment.(i) = home)
        (Cs_ddg.Graph.preplaced region.Cs_ddg.Region.graph))

let prop_driver_weights_invariant =
  QCheck.Test.make ~count:25 ~name:"driver leaves matrix normalized" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let result =
        Cs_core.Driver.run ~machine:vliw4 region (Cs_core.Sequence.vliw_default ())
      in
      Cs_core.Weights.Inspect.check_invariants result.Cs_core.Driver.weights = Ok ())

let prop_more_tiles_never_catastrophic =
  (* Adding tiles should never make the convergent schedule dramatically
     worse: 4 tiles within 3x of 1 tile (communication can cost, but a
     sane scheduler does not blow up). *)
  QCheck.Test.make ~count:15 ~name:"more tiles not catastrophic" arbitrary_region
    (fun params ->
      let region1 = make_region ~banks:1 params in
      let region4 = make_region ~banks:4 params in
      let m1 = Cs_machine.Raw.with_tiles 1 in
      let s1 = Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Convergent ~machine:m1 region1 in
      let s4 = Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Convergent ~machine:raw4 region4 in
      Cs_sched.Schedule.makespan s4 <= 3 * Cs_sched.Schedule.makespan s1)

let prop_estimator_positive =
  QCheck.Test.make ~count:25 ~name:"estimator positive and >= cpl" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let assignment = Cs_baselines.Rawcc.assign ~machine:vliw4 region in
      let a =
        Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of vliw4)
          region.Cs_ddg.Region.graph
      in
      Cs_baselines.Estimator.schedule_length ~machine:vliw4 ~assignment region
      >= Cs_ddg.Analysis.cpl a)

let prop_pcc_components_partition =
  QCheck.Test.make ~count:25 ~name:"pcc components partition nodes" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let comps = Cs_baselines.Pcc.components ~machine:vliw4 ~theta:5 region in
      let members = List.concat comps |> List.sort Int.compare in
      members = List.init (Cs_ddg.Region.n_instrs region) (fun i -> i)
      && List.for_all (fun c -> List.length c <= 5) comps)

let prop_analysis_invariants =
  QCheck.Test.make ~count:50 ~name:"analysis invariants on random regions" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let graph = region.Cs_ddg.Region.graph in
      let a = Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of vliw4) graph in
      let ok = ref true in
      for i = 0 to Cs_ddg.Graph.n graph - 1 do
        if Cs_ddg.Analysis.earliest a i > Cs_ddg.Analysis.latest a i then ok := false;
        if Cs_ddg.Analysis.slack a i < 0 then ok := false;
        (* depth counts edges; earliest sums latencies >= 1 per edge *)
        if Cs_ddg.Analysis.depth a i > Cs_ddg.Analysis.earliest a i then ok := false;
        if Cs_ddg.Analysis.earliest a i + Cs_ddg.Analysis.latency a i > Cs_ddg.Analysis.cpl a
        then ok := false;
        (* every predecessor finishes before the ASAP start *)
        List.iter
          (fun p ->
            if Cs_ddg.Analysis.earliest a p + Cs_ddg.Analysis.latency a p
               > Cs_ddg.Analysis.earliest a i
            then ok := false)
          (Cs_ddg.Graph.preds graph i)
      done;
      !ok)

let prop_distance_symmetric =
  QCheck.Test.make ~count:30 ~name:"undirected distances symmetric" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let graph = region.Cs_ddg.Region.graph in
      let a = Cs_ddg.Analysis.make ~latency:(fun _ -> 1) graph in
      let n = Cs_ddg.Graph.n graph in
      let ok = ref true in
      for k = 0 to min 20 (n - 1) do
        let i = k and j = n - 1 - k in
        if Cs_ddg.Analysis.distance a i j <> Cs_ddg.Analysis.distance a j i then ok := false
      done;
      !ok)

let prop_semantic_equivalence =
  (* The strongest property in the suite: for random regions, every
     scheduler's output computes exactly the same dataflow values as
     program-order execution (see Cs_sim.Interp). *)
  QCheck.Test.make ~count:25 ~name:"schedules semantically equivalent" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      List.for_all
        (fun (machine, scheduler) ->
          let sched = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
          Cs_sim.Interp.equivalent region sched = Ok ())
        [ (raw4, Cs_sim.Pipeline.Convergent); (raw4, Cs_sim.Pipeline.Rawcc);
          (vliw4, Cs_sim.Pipeline.Convergent); (vliw4, Cs_sim.Pipeline.Uas);
          (vliw4, Cs_sim.Pipeline.Bug) ])

let prop_iterative_terminates =
  QCheck.Test.make ~count:15 ~name:"iterative driver terminates within bound" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let result, rounds =
        Cs_core.Driver.run_iterative ~max_rounds:4 ~machine:vliw4 region
          (Cs_core.Sequence.vliw_default ())
      in
      rounds >= 1 && rounds <= 4
      && Cs_core.Weights.Inspect.check_invariants result.Cs_core.Driver.weights = Ok ())

let prop_textual_roundtrip =
  QCheck.Test.make ~count:40 ~name:"textual format round-trips" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      match Cs_ddg.Textual.of_string (Cs_ddg.Textual.to_string region) with
      | Error _ -> false
      | Ok region2 ->
        let g1 = region.Cs_ddg.Region.graph and g2 = region2.Cs_ddg.Region.graph in
        Cs_ddg.Graph.n g1 = Cs_ddg.Graph.n g2
        && Cs_ddg.Graph.n_edges g1 = Cs_ddg.Graph.n_edges g2
        && Cs_ddg.Graph.preplaced g1 = Cs_ddg.Graph.preplaced g2
        && Array.for_all2
             (fun (a : Cs_ddg.Instr.t) (b : Cs_ddg.Instr.t) -> a.op = b.op)
             (Cs_ddg.Graph.instrs g1) (Cs_ddg.Graph.instrs g2))

let prop_pressure_nonnegative =
  QCheck.Test.make ~count:25 ~name:"register pressure sane" arbitrary_region
    (fun params ->
      let region = make_region ~banks:4 params in
      let sched = Cs_sim.Pipeline.schedule ~scheduler:Cs_sim.Pipeline.Uas ~machine:vliw4 region in
      let peaks = Cs_regalloc.Pressure.peak sched in
      Array.for_all (fun p -> p >= 0) peaks
      && Cs_regalloc.Pressure.max_peak sched
         <= List.length (Cs_regalloc.Pressure.intervals sched))

(* --- Byte fuzz of the textual readers -------------------------------- *)

(* A valid pass token: a registered pass with some parameters moved off
   their defaults to values drawn from their tuning ranges, printed by
   [Sequence.names]. *)
let pass_token_gen =
  QCheck.Gen.(
    oneofl Cs_core.Sequence.registry >>= fun (d : Cs_core.Pass.decl) ->
    flatten_l
      (List.map
         (fun (p : Cs_core.Pass.param) ->
           let lo, hi = p.tune in
           let value =
             match p.typ with
             | Cs_core.Pass.Bool -> return (1.0 -. p.default)
             | Cs_core.Pass.Int -> map float_of_int (int_range (int_of_float lo) (int_of_float hi))
             | Cs_core.Pass.Float -> float_range lo hi
           in
           map2 (fun moved v -> if moved && v <> p.default then Some (p.key, v) else None)
             bool value)
         d.params)
    >|= fun kvs ->
    match Cs_core.Pass.instantiate d (List.filter_map Fun.id kvs) with
    | Ok pass -> List.hd (Cs_core.Sequence.names [ pass ])
    | Error e -> failwith e)

(* A valid fault plan for a mesh, a wide VLIW or a small mixed machine. *)
let fault_token_gen =
  QCheck.Gen.(
    map2
      (fun seed shape ->
        Cs_resil.Fault.to_string (Cs_resil.Fault.random (Cs_util.Rng.create seed) ~shape))
      (int_bound 1_000_000)
      (oneofl
         [ { Cs_resil.Fault.n_clusters = 16; issue_width = 1; mesh = Some (4, 4) };
           { n_clusters = 4; issue_width = 4; mesh = None };
           { n_clusters = 4; issue_width = 2; mesh = Some (2, 2) } ]))

(* One to four byte edits of a valid token: insert, delete, flip a bit,
   truncate. Half the inserted bytes come from the grammars' own
   alphabet. *)
let mutate s (op, at, c, bit) =
  let n = String.length s in
  match op with
  | 0 ->
    let at = at mod (n + 1) in
    String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
  | 1 when n > 0 ->
    let at = at mod n in
    String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
  | 2 when n > 0 ->
    let at = at mod n in
    String.mapi (fun i ch -> if i = at then Char.chr (Char.code ch lxor (1 lsl bit)) else ch) s
  | _ -> String.sub s 0 (at mod (n + 1))

let edits_gen ?(alphabet = "=:,-x.e0123456789 +_") ?(max_at = 1_000) () =
  let byte =
    QCheck.Gen.(frequency [ (1, char); (1, oneofl (List.of_seq (String.to_seq alphabet))) ])
  in
  QCheck.Gen.(list_size (int_range 1 4) (quad (int_bound 3) (int_bound max_at) byte (int_bound 7)))

let fuzzed ?alphabet ?max_at token_gen =
  QCheck.make ~print:(Printf.sprintf "%S") ~shrink:QCheck.Shrink.string
    QCheck.Gen.(map2 (List.fold_left mutate) token_gen (edits_gen ?alphabet ?max_at ()))

let same_params (p : Cs_core.Pass.t) (q : Cs_core.Pass.t) =
  p.name = q.name
  && List.equal
       (fun (k, v) (k', v') -> k = k' && Int64.bits_of_float v = Int64.bits_of_float v')
       p.params q.params

let prop_pass_spec_bytes =
  QCheck.Test.make ~count:20000 ~name:"pass spec bytes: Ok round-trips through names"
    (fuzzed pass_token_gen) (fun s ->
      match Cs_core.Sequence.of_spec s with
      | Error _ -> true
      | Ok p -> (
        match Cs_core.Sequence.of_names (Cs_core.Sequence.names [ p ]) with
        | Ok [ q ] -> same_params p q
        | _ -> false))

let prop_fault_plan_bytes =
  QCheck.Test.make ~count:20000 ~name:"fault plan bytes: Ok round-trips through to_string"
    (fuzzed fault_token_gen) (fun s ->
      match Cs_resil.Fault.parse s with
      | Error _ -> true
      | Ok plan -> Cs_resil.Fault.parse (Cs_resil.Fault.to_string plan) = Ok plan)

(* Valid wire lines: job requests for both machines with seeds, pass
   specs, deadlines and the optional fields; the three control verbs
   and heartbeats; replies of both verdicts. Floats take any value a
   service could send, not just short decimals. *)
let wire_float =
  QCheck.Gen.(
    oneof
      [ float_range 0.0 1e4; map float_of_int (int_bound 100_000);
        map Float.of_int (int_range 0 (1 lsl 60)); float_range 1e15 1e300 ])

let wire_string =
  QCheck.Gen.(oneof [ oneofl [ ""; "job-1"; "tenant \"a\"\n" ]; string_size ~gen:char (int_bound 8) ])

(* [Proto] has no writer for the ping verb, which health checkers send. *)
let ping_line id = Cs_obs.Json.(to_string (Obj [ ("op", Str "ping"); ("id", Str id) ]))

let request_line_gen =
  QCheck.Gen.(
    quad (oneofl Cs_workloads.Suite.all) (oneofl [ "raw16"; "vliw4" ])
      (pair (opt (int_bound 1_000_000)) (opt (list_size (int_range 1 3) pass_token_gen)))
      (quad (opt wire_float) (int_range 1 64) (opt wire_string) (opt (oneofl [ "interactive"; "batch" ])))
    >|= fun ((e : Cs_workloads.Suite.entry), machine, (seed, passes), (deadline_ms, scale, tenant, job_class)) ->
    Cs_svc.Proto.request_to_line
      (Cs_svc.Proto.request ~id:"r" ~machine ~scale ?deadline_ms
         ?passes:(Option.map (String.concat ",") passes)
         ?seed ?tenant ?job_class ~idem_key:"k" ~trace_id:"t1" ~parent_span:"p1" e.name))

let reply_line_gen =
  QCheck.Gen.(
    quad wire_string wire_float (opt (int_bound 500))
      (oneof
         [ map
             (fun (cycles, transfers, timed_out, quarantined) ->
               Cs_svc.Proto.Scheduled { cycles; transfers; rung = "requested"; timed_out; quarantined })
             (quad (int_bound 100_000) (int_bound 5_000) bool (int_bound 12));
           map
             (fun (kind, message) -> Cs_svc.Proto.Refused { kind; message })
             (pair (oneofl [ "overloaded"; "deadline-exceeded"; "invalid-input" ]) wire_string) ])
    >|= fun (id, elapsed_ms, queue_depth, verdict) ->
    Cs_svc.Proto.reply_to_line (Cs_svc.Proto.reply ?queue_depth ~cached:(queue_depth = None) ~id ~elapsed_ms verdict))

let control_line_gen =
  QCheck.Gen.(
    oneof
      [ map (fun id -> Cs_svc.Proto.stats_line ~id ()) wire_string;
        map (fun id -> Cs_svc.Proto.metrics_line ~format:Cs_svc.Proto.Metrics_prometheus ~id ()) wire_string;
        map ping_line wire_string;
        map
          (fun (hb_shard, (hb_depth, hb_busy, hb_workers, hb_completed)) ->
            Cs_svc.Proto.heartbeat_line { hb_shard; hb_depth; hb_busy; hb_workers; hb_completed })
          (pair wire_string (quad (int_bound 99) (int_bound 8) (int_bound 8) (int_bound 100_000))) ])

let json_alphabet = "{}[]\":,\\u0123456789abcdef.eE-+ ntrl"

(* An incoming line as the server's peers write it. *)
let incoming_to_line = function
  | Cs_svc.Proto.Job_request r -> Cs_svc.Proto.request_to_line r
  | Control { op = Ping; id } -> ping_line id
  | Control { op = Stats_query; id } -> Cs_svc.Proto.stats_line ~id ()
  | Control { op = Metrics_query format; id } -> Cs_svc.Proto.metrics_line ~format ~id ()
  | Heartbeat hb -> Cs_svc.Proto.heartbeat_line hb

(* Every mutated line decodes to a typed error or to a value whose
   encoding decodes to the same value: no exception, no hang, no value
   the codec cannot carry. *)
let round_trips decode encode s =
  match decode s with Error _ -> true | Ok v -> decode (encode v) = Ok v

let prop_request_bytes =
  QCheck.Test.make ~count:10000 ~name:"request line bytes: Ok round-trips"
    (fuzzed ~alphabet:json_alphabet request_line_gen)
    (round_trips Cs_svc.Proto.request_of_line Cs_svc.Proto.request_to_line)

let prop_incoming_bytes =
  QCheck.Test.make ~count:10000 ~name:"incoming line bytes: Ok round-trips"
    (fuzzed ~alphabet:json_alphabet QCheck.Gen.(oneof [ request_line_gen; control_line_gen ]))
    (round_trips Cs_svc.Proto.incoming_of_line incoming_to_line)

let prop_reply_bytes =
  QCheck.Test.make ~count:10000 ~name:"reply line bytes: Ok round-trips"
    (fuzzed ~alphabet:json_alphabet reply_line_gen)
    (round_trips Cs_svc.Proto.reply_of_line Cs_svc.Proto.reply_to_line)

(* A valid WAL: up to six records whose payloads cannot hold the
   record magic, mutated by the same byte edits. Recovery must keep a
   prefix of the appended records, take an append, and leave a log
   whose next scan cuts nothing. *)
let wal_case_dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "cs_props_wal_%d" (Unix.getpid ()))

let wal_case_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 6) (string_size ~gen:(char_range 'a' 'z') (int_bound 40)))
      (edits_gen ~alphabet:"CSW1\000\255" ~max_at:400 ()))

let print_wal_case (payloads, edits) =
  Printf.sprintf "payloads [%s], edits [%s]"
    (String.concat "; " (List.map (Printf.sprintf "%S") payloads))
    (String.concat "; "
       (List.map (fun (op, at, c, bit) -> Printf.sprintf "(%d, %d, %C, %d)" op at c bit) edits))

let prop_wal_bytes =
  QCheck.Test.make ~count:1000 ~name:"WAL bytes: recovery keeps a prefix and appends cleanly"
    (QCheck.make ~print:print_wal_case wal_case_gen) (fun (payloads, edits) ->
      let dir = wal_case_dir in
      if Sys.file_exists dir then
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      let wal, _ = Cs_util.Wal.open_dir ~dir () in
      List.iter (Cs_util.Wal.append wal) payloads;
      Cs_util.Wal.close wal;
      let path = Filename.concat dir "wal-000000.log" in
      let log = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (List.fold_left mutate log edits));
      let wal, recov = Cs_util.Wal.open_dir ~dir () in
      let kept = recov.Cs_util.Wal.records in
      let is_prefix = List.filteri (fun i _ -> i < List.length kept) payloads = kept in
      Cs_util.Wal.append_sync wal "after";
      Cs_util.Wal.close wal;
      let wal, again = Cs_util.Wal.open_dir ~dir () in
      Cs_util.Wal.close wal;
      is_prefix
      && again.Cs_util.Wal.truncated_bytes = 0
      && again.Cs_util.Wal.records = kept @ [ "after" ])

(* Repro files of generated scenarios, healthy and degraded. Most edits
   of a file with its fingerprint header are refused by the fingerprint,
   so a third of the files go without one and let edits of the region
   reach the textual reader. Every mutated file loads to a typed error
   or to a repro whose own file loads back to the same text and
   fingerprint. *)
let repro_gen =
  QCheck.Gen.(
    triple (int_bound 100_000) bool (int_bound 2) >|= fun (seed, degraded, drop) ->
    let scenario =
      if degraded then Cs_check.Gen.case_degraded ~seed else Cs_check.Gen.case ~seed
    in
    let text =
      Cs_check.Repro.to_string
        { Cs_check.Repro.scenario; check = Some "validator"; note = Some "found by fuzz" }
    in
    if drop > 0 then text
    else
      String.concat "\n"
        (List.filter
           (fun l -> not (String.starts_with ~prefix:"fingerprint " l))
           (String.split_on_char '\n' text)))

let repro_round_trips s =
  match Cs_check.Repro.of_string s with
  | Error _ -> true
  | Ok r -> (
    let text = Cs_check.Repro.to_string r in
    match Cs_check.Repro.of_string text with
    | Ok r' ->
      Cs_check.Repro.to_string r' = text
      && Cs_check.Repro.fingerprint r'.Cs_check.Repro.scenario
         = Cs_check.Repro.fingerprint r.Cs_check.Repro.scenario
    | Error _ -> false)

let prop_repro_bytes =
  QCheck.Test.make ~count:10000 ~name:"repro file bytes: Ok round-trips with its fingerprint"
    (fuzzed ~alphabet:" \n-<>:=,.0123456789abcdefilmnoprstuvx" ~max_at:4000 repro_gen)
    repro_round_trips

(* The minimised failures the three wire properties found, kept in
   test/corpus/wire.lines: each must now decode to a typed error or
   round-trip. *)
let test_wire_corpus () =
  let lines = In_channel.with_open_text "corpus/wire.lines" In_channel.input_all in
  let cases =
    List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' lines)
  in
  if cases = [] then Alcotest.fail "corpus/wire.lines holds no line";
  List.iter
    (fun l ->
      let reader, line =
        match String.index_opt l ' ' with
        | Some k -> (String.sub l 0 k, String.sub l (k + 1) (String.length l - k - 1))
        | None -> Alcotest.failf "corpus line without a reader: %S" l
      in
      let ok =
        match reader with
        | "request" -> round_trips Cs_svc.Proto.request_of_line Cs_svc.Proto.request_to_line line
        | "incoming" -> round_trips Cs_svc.Proto.incoming_of_line incoming_to_line line
        | "reply" -> round_trips Cs_svc.Proto.reply_of_line Cs_svc.Proto.reply_to_line line
        | r -> Alcotest.failf "unknown reader %S" r
      in
      if not ok then Alcotest.failf "%s line does not round-trip: %s" reader line)
    cases

(* The minimised failures the repro property found, one file each in
   test/corpus/repro-*.txt: a register read before any line defines it
   printed back under another number, and a live-out that no
   instruction reads or defines printed back unreadable. *)
let test_repro_corpus () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"repro-" f && Filename.check_suffix f ".txt")
  in
  if files = [] then Alcotest.fail "corpus holds no repro-*.txt file";
  List.iter
    (fun f ->
      let s = In_channel.with_open_bin (Filename.concat "corpus" f) In_channel.input_all in
      if not (repro_round_trips s) then Alcotest.failf "%s does not round-trip" f)
    files

let () =
  Alcotest.run "properties"
    [
      ( "schedulers",
        List.map to_alcotest
          [ prop_convergent_vliw; prop_convergent_raw; prop_uas_vliw; prop_rawcc_raw;
            prop_bug_vliw; prop_scheduler_matrix; prop_single_tile_serializes ] );
      ( "framework",
        List.map to_alcotest
          [ prop_assignment_respects_preplacement; prop_driver_weights_invariant;
            prop_more_tiles_never_catastrophic; prop_semantic_equivalence;
            prop_iterative_terminates ] );
      ( "analysis",
        List.map to_alcotest
          [ prop_analysis_invariants; prop_distance_symmetric; prop_textual_roundtrip ] );
      ( "baselines",
        List.map to_alcotest
          [ prop_estimator_positive; prop_pcc_components_partition; prop_pressure_nonnegative ] );
      ( "readers",
        List.map to_alcotest
          [ prop_pass_spec_bytes; prop_fault_plan_bytes; prop_request_bytes; prop_incoming_bytes;
            prop_reply_bytes; prop_wal_bytes; prop_repro_bytes ]
        @ [ Alcotest.test_case "wire corpus replays" `Quick test_wire_corpus;
            Alcotest.test_case "repro corpus replays" `Quick test_repro_corpus ] );
    ]
