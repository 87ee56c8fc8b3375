(* csched: command-line driver for the convergent-scheduling library.

     csched list
     csched run -b jacobi -m raw16 -s convergent [--scale N] [--verbose] [--trace-out t.json]
     csched compare -b mxm -m vliw4
     csched trace -b jacobi -m raw16
     csched profile -b jacobi -m raw16 [--rounds 3] [--trace-out t.json] [--jsonl t.jsonl]
     csched dot -b sha -m vliw4 -o sha.dot [-s uas]
     csched faults -b sha -m raw16 [--plans 'tile=5;link=1-2'] [-o sweep.jsonl]
     csched fuzz [--seeds LO..HI] [--degraded] [--corpus DIR]
     csched passes *)

open Cmdliner

(* --- shared argument parsing --- *)

let machine_conv =
  let printer fmt m = Format.fprintf fmt "%s" m.Cs_machine.Machine.name in
  let parse s =
    Cs_svc.Proto.machine_of_name s |> Result.map_error (fun e -> `Msg e)
  in
  Arg.conv (parse, printer)

let benchmark_conv =
  let parse s =
    match Cs_workloads.Suite.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown benchmark %S; try `csched list'" s))
  in
  let printer fmt e = Format.fprintf fmt "%s" e.Cs_workloads.Suite.name in
  Arg.conv (parse, printer)

let scheduler_conv =
  let parse s =
    match Cs_sim.Pipeline.scheduler_of_name s with
    | Some sch -> Ok sch
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let printer fmt s = Format.fprintf fmt "%s" (Cs_sim.Pipeline.scheduler_name s) in
  Arg.conv (parse, printer)

let benchmark_arg =
  Arg.(required & opt (some benchmark_conv) None & info [ "b"; "benchmark" ] ~doc:"Benchmark name.")

let machine_arg =
  Arg.(value & opt machine_conv (Cs_machine.Raw.with_tiles 16) & info [ "m"; "machine" ] ~doc:"Target machine (raw<N>, vliw<N>).")

let scheduler_arg =
  Arg.(value & opt scheduler_conv Cs_sim.Pipeline.Convergent & info [ "s"; "scheduler" ] ~doc:"Scheduler: convergent, rawcc, uas, pcc, bug.")

let scale_arg = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Problem-size multiplier.")
let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full schedule.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable the observability sink and write the collected events as a Chrome \
           Trace Event file (load in chrome://tracing or ui.perfetto.dev).")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:"Also write the collected events as JSON Lines (one event per line).")

let write_exports ?jsonl ~trace_out events =
  Option.iter
    (fun path ->
      Cs_obs.Export.write_chrome path events;
      Printf.printf "wrote %s (%d events, Chrome Trace Event Format)\n" path
        (List.length events))
    trace_out;
  Option.iter
    (fun path ->
      Cs_obs.Export.write_jsonl path events;
      Printf.printf "wrote %s (%d events, JSON Lines)\n" path (List.length events))
    jsonl

(* Enable the sink around [f]; write the requested export files when it
   returns (or raises), so partial traces survive scheduler crashes.
   [events ()] drains the sink, so callers that read events themselves
   must not also use this wrapper. *)
let with_trace ?jsonl ~trace_out f =
  let active = trace_out <> None || jsonl <> None in
  if active then begin
    Cs_obs.Obs.reset ();
    Cs_obs.Obs.enable ()
  end;
  Fun.protect
    ~finally:(fun () ->
      if active then begin
        Cs_obs.Obs.disable ();
        write_exports ?jsonl ~trace_out (Cs_obs.Obs.events ())
      end)
    f

let region_of entry machine scale =
  entry.Cs_workloads.Suite.generate ~scale
    ~clusters:(Cs_machine.Machine.n_clusters machine) ()

(* --- fault plans --- *)

let faults_conv =
  let parse s =
    match Cs_resil.Fault.parse s with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  let printer fmt plan = Format.fprintf fmt "%s" (Cs_resil.Fault.to_string plan) in
  Arg.conv (parse, printer)

let faults_opt_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Degrade the machine with a fault plan before scheduling (e.g. \
           'tile=5,link=2-3,fu=1:0,slow-link=4-8:x3') and schedule through the \
           resilient fallback chain.")

(* The stock sweep grids for the paper's two evaluation machines; other
   geometries get a small generic set derived from their shape. *)
let raw4x4_plans =
  [ "tile=5"; "link=1-2"; "slow-link=4-8:x3"; "fu=0:0"; "tile=0,tile=15";
    "link=0-1,link=4-5"; "slow-link=0-4:x2,slow-link=1-5:x4";
    "tile=5,link=9-10,slow-link=2-6:x3" ]

let vliw4_plans =
  [ "tile=1"; "fu=0:3"; "fu=0:0,fu=0:1"; "tile=2,tile=3"; "fu=1:2"; "tile=0,fu=1:3";
    "fu=3:0,fu=3:1,fu=3:2,fu=3:3"; "tile=1,tile=2" ]

let default_plans (machine : Cs_machine.Machine.t) =
  let n = Cs_machine.Machine.n_clusters machine in
  match machine.Cs_machine.Machine.topology with
  | Cs_machine.Topology.Mesh { rows = 4; cols = 4; _ } -> raw4x4_plans
  | Cs_machine.Topology.Mesh { cols; _ } ->
    let b = if cols > 1 then 1 else n / 2 in
    List.concat
      [ (if n > 1 then [ Printf.sprintf "tile=%d" (n - 1); "fu=0:0" ] else []);
        (if n > 1 then
           [ Printf.sprintf "link=0-%d" b;
             Printf.sprintf "slow-link=0-%d:x2" b;
             Printf.sprintf "slow-link=0-%d:x3" b ]
         else []) ]
  | Cs_machine.Topology.Crossbar _
    when n = 4 && Cs_machine.Machine.issue_width machine = 4 ->
    vliw4_plans
  | Cs_machine.Topology.Crossbar _ ->
    List.concat
      [ (if n > 1 then [ "tile=0"; Printf.sprintf "tile=%d" (n - 1) ] else []);
        (if Cs_machine.Machine.issue_width machine > 1 then [ "fu=0:0" ] else []) ]

(* --- subcommands --- *)

let list_cmd =
  let doc = "List available benchmarks." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-14s %s\n" e.Cs_workloads.Suite.name e.Cs_workloads.Suite.description)
      Cs_workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let passes_cmd =
  let doc =
    "List available convergent passes, their parameters (type, default, domain and \
     tuning range) and the default sequences."
  in
  let run () =
    Printf.printf "passes: %s\n" (String.concat ", " Cs_core.Sequence.available);
    Printf.printf "raw default:  %s\n"
      (String.concat " " (Cs_core.Sequence.names (Cs_core.Sequence.raw_default ())));
    Printf.printf "vliw default: %s\n"
      (String.concat " " (Cs_core.Sequence.names (Cs_core.Sequence.vliw_default ())));
    let row = Printf.printf "%-10s %-22s %-6s %-8s %-25s %s\n" in
    print_newline ();
    row "pass" "parameter" "type" "default" "domain" "tuned in";
    let num = Printf.sprintf "%.12g" in
    let range (lo, hi) = Printf.sprintf "[%s, %s]" (num lo) (num hi) in
    List.iter
      (fun (d : Cs_core.Pass.decl) ->
        List.iter
          (fun (p : Cs_core.Pass.param) ->
            let typ =
              match p.typ with
              | Cs_core.Pass.Bool -> "bool"
              | Cs_core.Pass.Int -> "int"
              | Cs_core.Pass.Float -> if p.log_scale then "float*" else "float"
            in
            row d.name p.key typ (num p.default) (range p.domain) (range p.tune))
          d.params)
      Cs_core.Sequence.registry;
    print_endline "(float* is tuned on a log scale; booleans are 0 or 1)"
  in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ const ())

let passes_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "p"; "passes" ]
        ~doc:
          "Comma-separated convergent pass sequence (e.g. \
           INITTIME,PLACE,PLACEPROP,COMM); overrides the machine default and \
           forces the convergent scheduler.")

let parse_passes spec =
  match Cs_core.Sequence.of_names (String.split_on_char ',' spec) with
  | Ok passes -> passes
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let run_cmd =
  let doc = "Schedule one benchmark and report cycles." in
  let run entry machine scheduler scale verbose passes_spec faults trace_out =
    with_trace ~trace_out (fun () ->
        let machine =
          match faults with
          | None -> machine
          | Some plan ->
            (match Cs_machine.Machine.degrade machine plan with
            | degraded -> degraded
            | exception Cs_resil.Error.Error e ->
              Printf.eprintf "bad fault plan for %s: %s\n"
                machine.Cs_machine.Machine.name (Cs_resil.Error.to_string e);
              exit 1)
        in
        let region = region_of entry machine scale in
        let passes = Option.map parse_passes passes_spec in
        let sched =
          match faults with
          | Some _ ->
            (* A degraded machine can defeat the requested scheduler, so
               route through the fallback chain and report the outcome. *)
            (match Cs_sim.Pipeline.schedule_resilient ?passes ~scheduler ~machine region with
            | Ok (sched, outcome) ->
              Printf.printf "resilience: %s\n" (Cs_resil.Outcome.to_string outcome);
              sched
            | Error e ->
              Printf.eprintf "unschedulable on %s: %s\n" machine.Cs_machine.Machine.name
                (Cs_resil.Error.to_string e);
              exit 1)
          | None ->
            (match passes with
            | Some passes -> fst (Cs_sim.Pipeline.convergent ~passes ~machine region)
            | None -> Cs_sim.Pipeline.schedule ~scheduler ~machine region)
        in
        Printf.printf "%s on %s with %s: %d instructions, makespan %d cycles, %d transfers\n"
          entry.Cs_workloads.Suite.name machine.Cs_machine.Machine.name
          (Cs_sim.Pipeline.scheduler_name scheduler)
          (Cs_ddg.Region.n_instrs region)
          (Cs_sched.Schedule.makespan sched)
          (Cs_sched.Schedule.n_comms sched);
        let alloc = Cs_regalloc.Linear_scan.run sched in
        Printf.printf "register pressure peak %d, spills (32 regs/cluster) %d\n"
          (Cs_regalloc.Pressure.max_peak sched)
          alloc.Cs_regalloc.Linear_scan.total_spills;
        if verbose then Format.printf "%a@." Cs_sched.Schedule.pp sched)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ benchmark_arg $ machine_arg $ scheduler_arg $ scale_arg $ verbose_arg
      $ passes_opt_arg $ faults_opt_arg $ trace_out_arg)

let run_file_cmd =
  let doc = "Schedule a region from a text file (see lib/ddg/textual.mli for the format)." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Region description.")
  in
  let run path machine scheduler verbose passes_spec =
    match Cs_ddg.Textual.load_file path with
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 1
    | Ok region ->
      (match Cs_machine.Machine.validate_region machine region with
      | Error msg ->
        Printf.eprintf "%s does not fit %s: %s\n" path machine.Cs_machine.Machine.name msg;
        exit 1
      | Ok () ->
        let sched =
          match passes_spec with
          | Some spec ->
            fst (Cs_sim.Pipeline.convergent ~passes:(parse_passes spec) ~machine region)
          | None -> Cs_sim.Pipeline.schedule ~scheduler ~machine region
        in
        Printf.printf "%s on %s with %s: %d instructions, makespan %d cycles, %d transfers\n"
          path machine.Cs_machine.Machine.name
          (Cs_sim.Pipeline.scheduler_name scheduler)
          (Cs_ddg.Region.n_instrs region)
          (Cs_sched.Schedule.makespan sched)
          (Cs_sched.Schedule.n_comms sched);
        if verbose then Format.printf "%a@." Cs_sched.Schedule.pp sched)
  in
  Cmd.v (Cmd.info "run-file" ~doc)
    Term.(const run $ file_arg $ machine_arg $ scheduler_arg $ verbose_arg $ passes_opt_arg)

let compare_cmd =
  let doc = "Compare all schedulers on one benchmark." in
  let run entry machine scale =
    let region = region_of entry machine scale in
    let table = Cs_util.Table.create ~header:[ "scheduler"; "cycles"; "transfers"; "util%" ] in
    List.iter
      (fun scheduler ->
        let sched = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
        Cs_util.Table.add_row table
          [ Cs_sim.Pipeline.scheduler_name scheduler;
            string_of_int (Cs_sched.Schedule.makespan sched);
            string_of_int (Cs_sched.Schedule.n_comms sched);
            Cs_util.Table.cell_float (100.0 *. Cs_sched.Schedule.utilization sched) ])
      Cs_sim.Pipeline.all_schedulers;
    Cs_util.Table.print table
  in
  Cmd.v (Cmd.info "compare" ~doc) Term.(const run $ benchmark_arg $ machine_arg $ scale_arg)

let trace_cmd =
  let doc =
    "Show the convergent scheduler's per-pass convergence trace; or, with --merge, \
     assemble the JSONL traces dumped by several fleet processes (gateway, shards, \
     clients) into one Chrome Trace file with a lane per process."
  in
  let merge_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "merge" ] ~docv:"FILE1,FILE2,..."
          ~doc:
            "Merge these JSONL trace files (written by --jsonl) into a single Chrome \
             Trace document, one pid lane per recording process.")
  in
  let output_arg =
    Arg.(
      value & opt string "trace-merged.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path for the merged trace.")
  in
  let merge_traces spec out =
    let files =
      List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec)
    in
    if files = [] then begin
      Printf.eprintf "trace: --merge needs at least one file\n";
      exit 1
    end;
    let tagged =
      List.concat_map
        (fun path ->
          match Cs_obs.Export.load_jsonl path with
          | Ok events -> events
          | Error e ->
            Printf.eprintf "trace: %s\n" e;
            exit 1)
        files
    in
    Cs_util.Fsio.write_atomic ~path:out (Cs_obs.Export.chrome_merged tagged);
    let pids = List.sort_uniq compare (List.map fst tagged) in
    Printf.printf "wrote %s (%d events from %d files, %d process lanes)\n" out
      (List.length tagged) (List.length files) (List.length pids)
  in
  let opt_benchmark_arg =
    Arg.(
      value
      & opt (some benchmark_conv) None
      & info [ "b"; "benchmark" ] ~doc:"Benchmark name (required unless --merge).")
  in
  let run merge out entry machine scale =
    match (merge, entry) with
    | Some spec, _ -> merge_traces spec out
    | None, None ->
      Printf.eprintf "trace: required option --benchmark is missing\n";
      exit 1
    | None, Some entry ->
      let region = region_of entry machine scale in
      let _sched, trace = Cs_sim.Pipeline.convergent ~machine region in
      Format.printf "%a@." Cs_core.Trace.pp trace
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ merge_arg $ output_arg $ opt_benchmark_arg $ machine_arg $ scale_arg)

let dot_cmd =
  let doc = "Export a benchmark's dependence graph (colored by assignment) to Graphviz." in
  let output_arg =
    Arg.(value & opt string "graph.dot" & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let run entry machine scheduler scale path =
    let region = region_of entry machine scale in
    let sched = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
    Cs_ddg.Dot.write_file ~assignment:(Cs_sched.Schedule.assignment sched) ~path
      region.Cs_ddg.Region.graph;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ benchmark_arg $ machine_arg $ scheduler_arg $ scale_arg $ output_arg)

let profile_cmd =
  let doc =
    "Profile the convergent scheduler: per-pass wall time plus convergence telemetry \
     (preferred-cluster churn, mean confidence, weight-row entropy) for every pass of \
     every round, then the list-scheduler and simulator counters. The per-round series \
     reproduce the paper's Fig. 4/7-style convergence curves; --trace-out dumps the \
     underlying events for chrome://tracing. With --connect, profile a live service \
     instead: one stats round trip against a running serve or gateway, or a periodic \
     re-poll with delta rates under --watch."
  in
  let rounds_arg =
    Arg.(
      value & opt int 3
      & info [ "rounds" ]
          ~doc:"Apply the whole pass sequence this many times (iterative driver).")
  in
  let live_connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Print live stats from the serve or gateway at $(docv) (HOST:PORT or Unix \
             socket path) instead of profiling locally.")
  in
  let watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:
            "With --connect: re-poll every $(docv) seconds and print delta rates \
             (jobs/s admitted, completed, refused) between polls. Runs until \
             interrupted, or for --iterations polls.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"With --watch: stop after $(docv) polls (0 = run until interrupted).")
  in
  let profile_live ~watch ~iterations spec =
    let addr =
      match Cs_svc.Transport.parse spec with
      | Ok a -> a
      | Error msg ->
        Printf.eprintf "profile: %s\n" msg;
        exit 1
    in
    let fetch () =
      match Cs_svc.Client.fetch_stats ~addr () with
      | Ok s -> s
      | Error e ->
        Printf.eprintf "profile: %s: %s\n" (Cs_svc.Transport.to_string addr) e;
        exit 1
    in
    let print_stats ?prev ?dt (s : Cs_svc.Proto.server_stats) =
      Printf.printf "%s:\n" (Cs_svc.Transport.to_string addr);
      Printf.printf "  queue depth   %d\n" s.Cs_svc.Proto.queue_depth;
      Printf.printf "  workers       %d (%d busy, %.0f%% utilized)\n"
        s.Cs_svc.Proto.workers s.Cs_svc.Proto.busy
        (if s.Cs_svc.Proto.workers = 0 then 0.0
         else
           100.0 *. float_of_int s.Cs_svc.Proto.busy
           /. float_of_int s.Cs_svc.Proto.workers);
      Printf.printf "  admitted      %d\n" s.Cs_svc.Proto.admitted;
      Printf.printf "  completed     %d\n" s.Cs_svc.Proto.completed;
      Printf.printf "  shed          %d\n" s.Cs_svc.Proto.shed;
      Printf.printf "  refusals      %d\n" s.Cs_svc.Proto.refusals;
      List.iter
        (fun (k, v) -> Printf.printf "  %-13s %.0f\n" k v)
        s.Cs_svc.Proto.extra;
      (match (prev, dt) with
      | Some (p : Cs_svc.Proto.server_stats), Some dt when dt > 0.0 ->
        let rate cur prev = float_of_int (cur - prev) /. dt in
        Printf.printf "  rate          %+.1f/s admitted, %+.1f/s completed, %+.1f/s refused\n"
          (rate s.Cs_svc.Proto.admitted p.Cs_svc.Proto.admitted)
          (rate s.Cs_svc.Proto.completed p.Cs_svc.Proto.completed)
          (rate s.Cs_svc.Proto.refusals p.Cs_svc.Proto.refusals)
      | _ -> ());
      Printf.printf "%!"
    in
    match watch with
    | None -> print_stats (fetch ())
    | Some period ->
      let period = Float.max 0.05 period in
      let rec loop i prev prev_t =
        let s = fetch () in
        let now = Cs_obs.Clock.now () in
        if i > 0 then Printf.printf "\n";
        print_stats ?prev ?dt:(Option.map (fun t -> now -. t) prev_t) s;
        if iterations <= 0 || i + 1 < iterations then begin
          Unix.sleepf period;
          loop (i + 1) (Some s) (Some now)
        end
      in
      loop 0 None None
  in
  let opt_benchmark_arg =
    Arg.(
      value
      & opt (some benchmark_conv) None
      & info [ "b"; "benchmark" ] ~doc:"Benchmark name (required unless --connect).")
  in
  let run connect watch iterations entry machine scale passes_spec rounds trace_out jsonl =
    match (connect, entry) with
    | Some spec, _ -> profile_live ~watch ~iterations spec
    | None, None ->
      Printf.eprintf "profile: required option --benchmark is missing\n";
      exit 1
    | None, Some entry ->
    if rounds <= 0 then begin
      Printf.eprintf "profile: --rounds must be positive\n";
      exit 1
    end;
    let region = region_of entry machine scale in
    let passes =
      match passes_spec with
      | Some spec -> parse_passes spec
      | None -> Cs_sim.Pipeline.default_passes ~machine
    in
    (* The sink is always on for profiling; export files are optional.
       [events ()] drains the sink, so capture the list exactly once
       below and write the exports from it — not via [with_trace]. *)
    Cs_obs.Obs.reset ();
    Cs_obs.Obs.enable ();
    let result, rounds_run =
      (* epsilon 0 never triggers early exit, so exactly [rounds] rounds run
         and every round's telemetry is comparable. *)
      Cs_core.Driver.run_iterative ~max_rounds:rounds ~epsilon:0.0 ~machine region passes
    in
    let analysis = result.Cs_core.Driver.context.Cs_core.Context.analysis in
    let priority =
      if Cs_machine.Machine.is_mesh machine then Cs_sched.Priority.alap analysis
      else Cs_sched.Priority.of_slots result.Cs_core.Driver.preferred_slot
    in
    let sched =
      Cs_sched.List_scheduler.run ~machine ~assignment:result.Cs_core.Driver.assignment
        ~priority ~analysis region
    in
    Cs_obs.Obs.disable ();
    let events = Cs_obs.Obs.events () in
    write_exports ?jsonl ~trace_out events;
    let float_arg key ev =
      List.fold_left
        (fun acc (k, v) ->
          match v with Cs_obs.Obs.Float f when k = key -> Some f | _ -> acc)
        None ev.Cs_obs.Obs.args
    in
    (* The table reads each pass from its trace step; only the matrix's
       confidence and entropy come from the step's "converge" counter,
       one per step, in order. *)
    let converge =
      List.filter
        (fun e ->
          e.Cs_obs.Obs.cat = "converge" && e.Cs_obs.Obs.name <> "converge:round")
        events
    in
    Printf.printf "%s on %s: %d instructions, %d round%s of %d passes\n\n"
      entry.Cs_workloads.Suite.name machine.Cs_machine.Machine.name
      (Cs_ddg.Region.n_instrs region) rounds_run
      (if rounds_run = 1 then "" else "s")
      (List.length passes);
    let table =
      Cs_util.Table.create
        ~header:[ "round"; "pass"; "ms"; "churn"; "churn%"; "confidence"; "entropy" ]
    in
    List.iter2
      (fun (s : Cs_core.Trace.step) conv ->
        let get key = Option.value ~default:0.0 (float_arg key conv) in
        Cs_util.Table.add_row table
          [ string_of_int s.round;
            s.pass_name;
            Printf.sprintf "%.3f" (1000.0 *. s.elapsed_s);
            string_of_int s.changed;
            Printf.sprintf "%.1f" (100.0 *. Cs_core.Trace.changed_fraction s);
            Cs_util.Table.cell_float (get "mean_confidence");
            Cs_util.Table.cell_float (get "mean_entropy") ])
      result.Cs_core.Driver.trace converge;
    Cs_util.Table.print table;
    Printf.printf "\n";
    List.iter
      (fun e ->
        if e.Cs_obs.Obs.cat = "sched" && e.Cs_obs.Obs.ph = Cs_obs.Obs.Counter then begin
          Printf.printf "list scheduler:";
          List.iter
            (fun (k, v) ->
              match v with
              | Cs_obs.Obs.Float f -> Printf.printf " %s %.0f" k f
              | _ -> ())
            e.Cs_obs.Obs.args;
          Printf.printf "\n"
        end)
      events;
    Printf.printf "schedule: makespan %d cycles, %d transfers, utilization %.1f%%\n"
      (Cs_sched.Schedule.makespan sched)
      (Cs_sched.Schedule.n_comms sched)
      (100.0 *. Cs_sched.Schedule.utilization sched)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ live_connect_arg $ watch_arg $ iterations_arg $ opt_benchmark_arg
      $ machine_arg $ scale_arg $ passes_opt_arg $ rounds_arg $ trace_out_arg $ jsonl_arg)

let tune_cmd =
  let doc =
    "Evolve a pass sequence for a machine (parallel genetic autotuner). The paper picked \
     Table 1 by trial-and-error (Sec. 4); this searches the same space automatically and \
     prints the best sequence found plus its geomean speedup vs the hand-tuned default."
  in
  let population_arg =
    Arg.(value & opt int 16 & info [ "population" ] ~doc:"Population size.")
  in
  let generations_arg =
    Arg.(value & opt int 10 & info [ "generations" ] ~doc:"Number of generations.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~doc:"Worker domains for parallel fitness evaluation.")
  in
  let bench_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmarks" ]
          ~doc:"Comma-separated benchmark subset to tune on (default: the machine's suite).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget: stop starting new generations once $(docv) have \
             elapsed and report the best sequence so far (the summary records \
             budget_exhausted instead of completed).")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Save a crash-safe snapshot to $(docv) after every generation; a run \
             killed at any moment can continue with --resume.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the --checkpoint file if it exists. The continued run is \
             bit-identical to one that was never interrupted.")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Append-free JSON Lines run summary: status (completed or \
             budget_exhausted), generations run, best genome and fitness.")
  in
  let run machine population generations seed domains scale bench_spec budget checkpoint
      resume summary trace_out =
    if population <= 0 || generations <= 0 || domains <= 0 then begin
      Printf.eprintf "tune: --population, --generations, and --domains must be positive\n";
      exit 1
    end;
    if resume && checkpoint = None then begin
      Printf.eprintf "tune: --resume needs --checkpoint FILE\n";
      exit 1
    end;
    with_trace ~trace_out @@ fun () ->
    let suite =
      match bench_spec with
      | None ->
        if Cs_machine.Machine.is_mesh machine then Cs_workloads.Suite.raw_suite
        else Cs_workloads.Suite.vliw_suite
      | Some spec ->
        List.map
          (fun name ->
            match Cs_workloads.Suite.find name with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown benchmark %S; try `csched list'\n" name;
              exit 1)
          (String.split_on_char ',' spec)
    in
    let fit = Cs_tuner.Fitness.make ~scale ~machine suite in
    let params =
      { Cs_tuner.Ga.default_params with population; generations; seed; domains }
    in
    Printf.printf "tuning %s over %d benchmarks (pop %d x %d generations, seed %d, %d domain%s)\n%!"
      machine.Cs_machine.Machine.name (Cs_tuner.Fitness.n_cases fit) population generations
      seed domains (if domains = 1 then "" else "s");
    let deadline = Option.map (fun b -> Cs_obs.Clock.now () +. b) budget in
    let resume_snapshot =
      if not resume then None
      else
        Option.bind checkpoint (fun path ->
            match Cs_tuner.Checkpoint.load path with
            | Ok s ->
              Printf.printf "resuming from %s (generation %d done)\n%!" path
                s.Cs_tuner.Ga.gen_done;
              Some s
            | Error msg ->
              Printf.printf "fresh start: %s\n%!" msg;
              None)
    in
    let save_checkpoint =
      Option.map (fun path s -> Cs_tuner.Checkpoint.save ~path s) checkpoint
    in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Cs_tuner.Ga.run
        ~on_generation:(fun p ->
          Printf.printf "  gen %2d: best %.4f  (%d evals, %d cache hits)\n%!"
            p.Cs_tuner.Ga.generation p.Cs_tuner.Ga.gen_best_fitness
            p.Cs_tuner.Ga.evaluations p.Cs_tuner.Ga.cache_hits)
        ?checkpoint:save_checkpoint ?resume:resume_snapshot ?deadline params fit
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let open Cs_tuner.Ga in
    Option.iter
      (fun path ->
        let json =
          Cs_obs.Json.Obj
            [ ("tool", Cs_obs.Json.Str "tune");
              ("status",
               Cs_obs.Json.Str
                 (if outcome.completed then "completed" else "budget_exhausted"));
              ("machine", Cs_obs.Json.Str machine.Cs_machine.Machine.name);
              ("generations_run", Cs_obs.Json.Num (float_of_int outcome.generations_run));
              ("generations_wanted", Cs_obs.Json.Num (float_of_int generations));
              ("best", Cs_obs.Json.Str (Cs_tuner.Genome.to_string outcome.best));
              ("best_fitness", Cs_obs.Json.Num outcome.best_fitness);
              ("default_fitness", Cs_obs.Json.Num outcome.default_fitness);
              ("evaluations", Cs_obs.Json.Num (float_of_int outcome.evaluations));
              ("elapsed_s", Cs_obs.Json.Num elapsed) ]
        in
        Cs_util.Fsio.write_atomic ~path (Cs_obs.Json.to_string json ^ "\n");
        Printf.printf "wrote %s\n" path)
      summary;
    if not outcome.completed then
      Printf.printf "budget exhausted after %d of %d generations\n"
        outcome.generations_run generations;
    Printf.printf "\ndefault (Table 1): %.4f geomean speedup\n" outcome.default_fitness;
    Printf.printf "  %s\n"
      (String.concat "," (Cs_core.Sequence.names
                            (match Cs_tuner.Genome.to_passes outcome.default_genome with
                            | Ok p -> p
                            | Error _ -> [])));
    Printf.printf "evolved:           %.4f geomean speedup (%+.1f%%)\n" outcome.best_fitness
      ((outcome.best_fitness /. outcome.default_fitness -. 1.0) *. 100.0);
    Printf.printf "  %s\n"
      (String.concat "," (Cs_core.Sequence.names
                            (match Cs_tuner.Genome.to_passes outcome.best with
                            | Ok p -> p
                            | Error _ -> [])));
    Printf.printf "canonical: %s\n" (Cs_tuner.Genome.to_string outcome.best);
    Printf.printf "%d candidates simulated, %d served from cache, %.2fs wall\n"
      outcome.evaluations outcome.cache_hits elapsed;
    Printf.printf "replay with: csched run -b <bench> -m <machine> -p '%s'\n"
      (String.concat "," (Cs_core.Sequence.names
                            (match Cs_tuner.Genome.to_passes outcome.best with
                            | Ok p -> p
                            | Error _ -> [])))
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ machine_arg $ population_arg $ generations_arg $ seed_arg $ domains_arg
      $ scale_arg $ bench_arg $ budget_arg $ checkpoint_arg $ resume_arg $ summary_arg
      $ trace_out_arg)

let faults_cmd =
  let doc =
    "Fault-injection sweep: schedule one benchmark healthy, then re-schedule it on the \
     machine degraded by each fault plan in a grid (dead tiles, dead links, dead \
     functional units, slow links), routing every degraded attempt through the \
     resilient fallback chain. Reports the winning rung and slowdown versus the \
     healthy machine per plan; exits non-zero if any plan is unschedulable."
  in
  let plans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"P1;P2;..."
          ~doc:
            "Semicolon-separated fault plans to sweep (default: a stock grid for the \
             machine's geometry).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write one JSON object per plan (JSON Lines) to $(docv).")
  in
  let run entry machine scheduler scale plans_spec out trace_out jsonl =
    let plans =
      let specs =
        match plans_spec with
        | Some s ->
          List.filter (fun p -> String.trim p <> "") (String.split_on_char ';' s)
        | None -> default_plans machine
      in
      if specs = [] then begin
        Printf.eprintf "faults: no plans to sweep (single-cluster machine? pass --plans)\n";
        exit 1
      end;
      List.map
        (fun spec ->
          match Cs_resil.Fault.parse (String.trim spec) with
          | Ok plan -> plan
          | Error msg ->
            Printf.eprintf "faults: bad plan %S: %s\n" spec msg;
            exit 1)
        specs
    in
    with_trace ?jsonl ~trace_out @@ fun () ->
    let region = region_of entry machine scale in
    let healthy = Cs_sim.Pipeline.schedule ~scheduler ~machine region in
    let healthy_cycles = Cs_sched.Schedule.makespan healthy in
    Printf.printf "%s on %s with %s: healthy makespan %d cycles\n\n"
      entry.Cs_workloads.Suite.name machine.Cs_machine.Machine.name
      (Cs_sim.Pipeline.scheduler_name scheduler)
      healthy_cycles;
    let table =
      Cs_util.Table.create
        ~header:[ "plan"; "rung"; "cycles"; "slowdown"; "transfers"; "quarantined" ]
    in
    let records, failures =
      List.fold_left
        (fun (records, failures) plan ->
          let spec = Cs_resil.Fault.to_string plan in
          match Cs_machine.Machine.degrade machine plan with
          | exception Cs_resil.Error.Error e ->
            Cs_util.Table.add_row table
              [ spec; "-"; "-"; "-"; "-"; Cs_resil.Error.kind e ];
            let record =
              Cs_obs.Json.Obj
                [ ("machine", Cs_obs.Json.Str machine.Cs_machine.Machine.name);
                  ("plan", Cs_obs.Json.Str spec);
                  ("error", Cs_obs.Json.Str (Cs_resil.Error.to_string e)) ]
            in
            (record :: records, failures + 1)
          | degraded ->
            (match Cs_sim.Pipeline.schedule_resilient ~scheduler ~machine:degraded region with
            | Ok (sched, outcome) ->
              let cycles = Cs_sched.Schedule.makespan sched in
              let slowdown = float_of_int cycles /. float_of_int healthy_cycles in
              Cs_util.Table.add_row table
                [ spec;
                  Cs_resil.Outcome.rung_to_string outcome.Cs_resil.Outcome.rung;
                  string_of_int cycles;
                  Printf.sprintf "%.2fx" slowdown;
                  string_of_int (Cs_sched.Schedule.n_comms sched);
                  string_of_int (List.length outcome.Cs_resil.Outcome.quarantined) ];
              let record =
                Cs_obs.Json.Obj
                  [ ("machine", Cs_obs.Json.Str machine.Cs_machine.Machine.name);
                    ("plan", Cs_obs.Json.Str spec);
                    ("rung",
                     Cs_obs.Json.Str
                       (Cs_resil.Outcome.rung_to_string outcome.Cs_resil.Outcome.rung));
                    ("cycles", Cs_obs.Json.Num (float_of_int cycles));
                    ("healthy_cycles", Cs_obs.Json.Num (float_of_int healthy_cycles));
                    ("slowdown", Cs_obs.Json.Num slowdown);
                    ("transfers",
                     Cs_obs.Json.Num (float_of_int (Cs_sched.Schedule.n_comms sched)));
                    ("attempts",
                     Cs_obs.Json.Num
                       (float_of_int (List.length outcome.Cs_resil.Outcome.attempts)));
                    ("quarantined",
                     Cs_obs.Json.Num
                       (float_of_int (List.length outcome.Cs_resil.Outcome.quarantined))) ]
              in
              (record :: records, failures)
            | Error e ->
              Cs_util.Table.add_row table
                [ spec; "FAILED"; "-"; "-"; "-"; Cs_resil.Error.kind e ];
              let record =
                Cs_obs.Json.Obj
                  [ ("machine", Cs_obs.Json.Str machine.Cs_machine.Machine.name);
                    ("plan", Cs_obs.Json.Str spec);
                    ("error", Cs_obs.Json.Str (Cs_resil.Error.to_string e)) ]
              in
              (record :: records, failures + 1)))
        ([], 0) plans
    in
    Cs_util.Table.print table;
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun record ->
                Out_channel.output_string oc (Cs_obs.Json.to_string record);
                Out_channel.output_char oc '\n')
              (List.rev records));
        Printf.printf "wrote %s (%d plans, JSON Lines)\n" path (List.length records))
      out;
    if failures > 0 then begin
      Printf.eprintf "%d plan%s unschedulable\n" failures (if failures = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ benchmark_arg $ machine_arg $ scheduler_arg $ scale_arg $ plans_arg
      $ out_arg $ trace_out_arg $ jsonl_arg)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generate random regions (DAG shapes and CFG-derived \
     traces/superblocks/hyperblocks), schedule each with a randomly chosen scheduler or \
     pass sequence on a randomly chosen machine, and cross-check the result against the \
     validator, the semantic interpreter, analytic makespan bounds, and a \
     cluster-relabeling metamorphic invariant. Violations are minimized by delta \
     debugging and written as replayable repro files. Exits non-zero when any seed \
     produces a violation."
  in
  let seeds_conv =
    let parse s =
      match String.index_opt s '.' with
      | None ->
        (match int_of_string_opt s with
        | Some n when n >= 0 -> Ok (n, n)
        | _ -> Error (`Msg (Printf.sprintf "bad seed range %S (want N or LO..HI)" s)))
      | Some i ->
        let lo = String.sub s 0 i in
        let rest = String.sub s i (String.length s - i) in
        if String.length rest < 3 || String.sub rest 0 2 <> ".." then
          Error (`Msg (Printf.sprintf "bad seed range %S (want N or LO..HI)" s))
        else
          let hi = String.sub rest 2 (String.length rest - 2) in
          (match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi when 0 <= lo && lo <= hi -> Ok (lo, hi)
          | _ -> Error (`Msg (Printf.sprintf "bad seed range %S (want N or LO..HI)" s)))
    in
    let printer fmt (lo, hi) = Format.fprintf fmt "%d..%d" lo hi in
    Arg.conv (parse, printer)
  in
  let seeds_arg =
    Arg.(
      value
      & opt seeds_conv (0, 200)
      & info [ "seeds" ] ~docv:"LO..HI" ~doc:"Inclusive seed range to fuzz.")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~doc:"Worker domains for the search.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Stop claiming new seeds after this much wall-clock time.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write one minimized repro file per finding into $(docv).")
  in
  let findings_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "findings" ] ~docv:"FILE"
          ~doc:"Write findings as JSON Lines to $(docv).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report findings without minimizing them.")
  in
  let degraded_arg =
    Arg.(
      value & flag
      & info [ "degraded" ]
          ~doc:
            "Fuzz fault-injected scenarios: most cases additionally damage the machine \
             with a random fault plan (and sometimes sabotage the pass sequence), and \
             the oracle checks that the resilient fallback chain either refuses with a \
             typed error or returns a schedule passing every judge.")
  in
  let fuzz_checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal completed seed chunks to $(docv) (crash-safe); a run killed \
             mid-search can continue with --resume and produce bit-identical \
             findings.")
  in
  let fuzz_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Skip the seeds already covered by the --checkpoint journal (falls back \
             to a fresh run when the journal does not match the seed range).")
  in
  let fuzz_summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "JSON Lines run summary: status (completed or budget_exhausted), cases, \
             violations, elapsed seconds.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Instead of fuzzing, replay a repro file (or every *.repro in a directory) \
             and report which still fail.")
  in
  let replay path =
    let repros =
      if Sys.file_exists path && Sys.is_directory path then Cs_check.Repro.load_dir path
      else [ (path, Cs_check.Repro.load path) ]
    in
    if repros = [] then begin
      Printf.eprintf "fuzz: no .repro files under %s\n" path;
      exit 1
    end;
    let failures =
      List.fold_left
        (fun acc (file, repro) ->
          match repro with
          | Error msg ->
            Printf.printf "ERROR %s: %s\n" file msg;
            acc + 1
          | Ok r ->
            (match Cs_check.Repro.replay r with
            | Ok () ->
              Printf.printf "ok    %s\n" file;
              acc
            | Error v ->
              Printf.printf "FAIL  %s: %s: %s\n" file v.Cs_check.Oracle.check
                v.Cs_check.Oracle.detail;
              acc + 1))
        0 repros
    in
    Printf.printf "%d repro%s, %d failing\n" (List.length repros)
      (if List.length repros = 1 then "" else "s")
      failures;
    if failures > 0 then exit 1
  in
  let run seeds domains budget corpus findings_file no_shrink degraded checkpoint resume
      summary replay_path trace_out =
    if domains <= 0 then begin
      Printf.eprintf "fuzz: --domains must be positive\n";
      exit 1
    end;
    if resume && checkpoint = None then begin
      Printf.eprintf "fuzz: --resume needs --checkpoint FILE\n";
      exit 1
    end;
    with_trace ~trace_out @@ fun () ->
    match replay_path with
    | Some path -> replay path
    | None ->
      let lo, hi = seeds in
      let journal =
        Option.map
          (fun path ->
            if resume then Cs_check.Journal.resume ~path ~degraded ~seeds ()
            else Cs_check.Journal.create ~path ~degraded ~seeds ())
          checkpoint
      in
      Printf.printf "fuzzing seeds %d..%d (%d domain%s%s%s)\n%!" lo hi domains
        (if domains = 1 then "" else "s")
        (match budget with
        | None -> ""
        | Some b -> Printf.sprintf ", budget %.0fs" b)
        (if degraded then ", degraded machines" else "");
      let stats, found =
        Cs_check.Fuzz.run ~domains ?time_budget_s:budget ?corpus_dir:corpus
          ~shrink:(not no_shrink) ~degraded ?journal
          ~on_finding:(fun f ->
            Printf.printf "  seed %d (%s): %s: %s [%d -> %d instrs]%s\n%!"
              f.Cs_check.Fuzz.seed f.Cs_check.Fuzz.label f.Cs_check.Fuzz.check
              f.Cs_check.Fuzz.detail f.Cs_check.Fuzz.n_instrs
              f.Cs_check.Fuzz.shrunk_instrs
              (match f.Cs_check.Fuzz.repro_path with
              | None -> ""
              | Some p -> " -> " ^ p))
          ~seeds ()
      in
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Cs_check.Fuzz.findings_jsonl found));
          Printf.printf "wrote %s (%d findings, JSON Lines)\n" path (List.length found))
        findings_file;
      Option.iter
        (fun path ->
          let json =
            Cs_obs.Json.Obj
              [ ("tool", Cs_obs.Json.Str "fuzz");
                ("status",
                 Cs_obs.Json.Str
                   (if stats.Cs_check.Fuzz.completed then "completed"
                    else "budget_exhausted"));
                ("seed_lo", Cs_obs.Json.Num (float_of_int lo));
                ("seed_hi", Cs_obs.Json.Num (float_of_int hi));
                ("cases", Cs_obs.Json.Num (float_of_int stats.Cs_check.Fuzz.cases));
                ("violations",
                 Cs_obs.Json.Num (float_of_int stats.Cs_check.Fuzz.violations));
                ("elapsed_s", Cs_obs.Json.Num stats.Cs_check.Fuzz.elapsed_s) ]
          in
          Cs_util.Fsio.write_atomic ~path (Cs_obs.Json.to_string json ^ "\n");
          Printf.printf "wrote %s\n" path)
        summary;
      Printf.printf "%d case%s in %.1fs: %d violation%s%s\n" stats.Cs_check.Fuzz.cases
        (if stats.Cs_check.Fuzz.cases = 1 then "" else "s")
        stats.Cs_check.Fuzz.elapsed_s stats.Cs_check.Fuzz.violations
        (if stats.Cs_check.Fuzz.violations = 1 then "" else "s")
        (if stats.Cs_check.Fuzz.completed then "" else " (budget exhausted)");
      if stats.Cs_check.Fuzz.violations > 0 then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seeds_arg $ domains_arg $ budget_arg $ corpus_arg $ findings_arg
      $ no_shrink_arg $ degraded_arg $ fuzz_checkpoint_arg $ fuzz_resume_arg
      $ fuzz_summary_arg $ replay_arg $ trace_out_arg)

let default_addr = "/tmp/csched.sock"

(* serve/gateway bind to [--listen]; submit/metrics/top connect to
   [--connect]. Both take HOST:PORT (TCP) or a Unix socket path. *)
let addr_of ~flag spec =
  match Cs_svc.Transport.parse spec with
  | Ok addr -> addr
  | Error msg ->
    Printf.eprintf "%s: %s\n" flag msg;
    exit 1

let listen_arg =
  Arg.(
    value & opt string default_addr
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: HOST:PORT for TCP (e.g. 127.0.0.1:7040, port 0 picks a free \
           port) or a Unix socket path.")

let connect_doc = "Server address: HOST:PORT for TCP or a Unix socket path."

let connect_arg =
  Arg.(value & opt string default_addr & info [ "connect" ] ~docv:"ADDR" ~doc:connect_doc)

let serve_cmd =
  let doc =
    "Run the batch scheduling service: accept jobs on --listen, a Unix-domain socket \
     or HOST:PORT (one JSON request per line), execute them on a worker-domain pool \
     behind a bounded admission queue, and answer every request with a schedule or a \
     typed refusal. Per-job deadlines are enforced end to end via the anytime \
     driver; SIGTERM/SIGINT drain gracefully (every admitted job is still answered)."
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Worker domains executing jobs.")
  in
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue" ]
          ~doc:"Admission-queue bound; excess jobs are shed with a typed overloaded reply.")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Deadline applied to jobs that do not carry one.")
  in
  let pass_budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "pass-budget-ms" ] ~docv:"MS"
          ~doc:
            "Per-pass time budget inside the convergent driver; overrunning passes are \
             rolled back and quarantined.")
  in
  let chaos_slow_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "chaos-slow-ms" ] ~docv:"MS"
          ~doc:
            "Fault drill: append a CHAOS pass stalling $(docv) ms to every convergent \
             job, to exercise deadlines and per-pass budgets under load.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ]
          ~doc:
            "Retry transient job failures up to this many extra attempts (exponential \
             backoff with deterministic jitter); 0 disables.")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "heartbeat" ] ~docv:"ADDR"
          ~doc:
            "Push a load heartbeat to the gateway at $(docv) every heartbeat period, \
             over a persistent connection.")
  in
  let heartbeat_period_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "heartbeat-period-ms" ] ~docv:"MS" ~doc:"Heartbeat push period.")
  in
  let advertise_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "advertise" ] ~docv:"NAME"
          ~doc:
            "Shard name carried on heartbeats — must match the address the gateway was \
             configured with for this shard; defaults to the bound address.")
  in
  let tenant_quota_arg =
    Arg.(
      value & opt int 0
      & info [ "tenant-quota" ] ~docv:"N"
          ~doc:
            "Max queued jobs per tenant; a tenant over its quota gets a typed \
             quota-exceeded refusal while others are unaffected. 0 = no bound \
             tighter than --queue.")
  in
  let batch_share_arg =
    Arg.(
      value & opt int 4
      & info [ "batch-share" ] ~docv:"N"
          ~doc:
            "Guarantee the batch lane one admission pull in every $(docv) even under \
             interactive pressure.")
  in
  let brownout_flag_arg =
    Arg.(
      value & flag
      & info [ "brownout" ]
          ~doc:
            "Enable brownout degradation: when queue-wait burn crosses the watermark, \
             progressively tighten effective pass budgets (anytime best-so-far) \
             before shedding, recovering hysteretically.")
  in
  let run listen workers queue default_deadline_ms pass_budget_ms chaos_slow_ms retries
      heartbeat heartbeat_period_ms advertise tenant_quota batch_share
      brownout trace_out jsonl =
    if workers <= 0 || queue <= 0 then begin
      Printf.eprintf "serve: --workers and --queue must be positive\n";
      exit 1
    end;
    with_trace ?jsonl ~trace_out @@ fun () ->
    let retry =
      if retries <= 0 then None
      else Some { Cs_svc.Retry.default with max_attempts = retries + 1 }
    in
    let addr = addr_of ~flag:"serve" listen in
    let cfg =
      try
        Cs_svc.Server.config ~workers ~queue_capacity:queue ?default_deadline_ms
          ?pass_budget_s:(Option.map (fun ms -> ms /. 1000.0) pass_budget_ms)
          ?chaos_slow_ms ?retry ?heartbeat
          ~heartbeat_period_s:(heartbeat_period_ms /. 1000.0)
          ?advertise ~tenant_quota ~batch_share
          ?brownout:(if brownout then Some Cs_svc.Brownout.default else None)
          (Cs_svc.Transport.to_string addr)
      with Invalid_argument msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 1
    in
    let server =
      try Cs_svc.Server.create cfg
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "serve: cannot listen on %s: %s\n"
          (Cs_svc.Transport.to_string addr) (Unix.error_message e);
        exit 1
    in
    let stop _ = Cs_svc.Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "csched serve: listening on %s (%d workers, queue %d)\n%!"
      (Cs_svc.Transport.to_string (Cs_svc.Server.address server))
      workers queue;
    Cs_svc.Server.run server;
    let s = Cs_svc.Server.stats server in
    Printf.printf
      "drained: %d admitted, %d scheduled, %d refused (%d shed by admission)\n"
      s.Cs_svc.Server.admitted s.Cs_svc.Server.completed s.Cs_svc.Server.refused
      s.Cs_svc.Server.shed
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ listen_arg $ workers_arg $ queue_arg $ default_deadline_arg
      $ pass_budget_arg $ chaos_slow_arg $ retries_arg $ heartbeat_arg
      $ heartbeat_period_arg $ advertise_arg $ tenant_quota_arg
      $ batch_share_arg $ brownout_flag_arg $ trace_out_arg $ jsonl_arg)

let gateway_cmd =
  let doc =
    "Run the fleet gateway: one front door over N `csched serve' shards, speaking the \
     same JSON-lines protocol. Jobs are routed by consistent hash of their canonical \
     scenario (or by a load-aware policy fed by queue-depth gossip), repeat scenarios \
     are answered from a bounded LRU result cache without a shard hop, and a \
     health-checked failover replays in-flight jobs from a dead shard on a live one — \
     every client request is answered exactly once."
  in
  let shards_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "shards" ] ~docv:"ADDR1,ADDR2,..."
          ~doc:"Comma-separated shard addresses (HOST:PORT or Unix socket paths).")
  in
  let policy_arg =
    Arg.(
      value & opt string "hash"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Dispatch policy: $(b,hash), $(b,least-loaded) or $(b,wct).")
  in
  let cache_arg =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (LRU entries).")
  in
  let forwarders_arg =
    Arg.(
      value & opt int 4
      & info [ "forwarders" ] ~doc:"Concurrent forwarding workers.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~doc:"Gateway admission-queue bound; excess jobs are shed.")
  in
  let probe_period_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "probe-period-ms" ] ~docv:"MS"
          ~doc:"Health-probe period: every shard is pinged this often.")
  in
  let fail_threshold_arg =
    Arg.(
      value & opt int 3
      & info [ "fail-threshold" ]
          ~doc:
            "Consecutive transport failures before a shard is evicted (it re-enters \
             via backoff probes).")
  in
  let shard_timeout_arg =
    Arg.(
      value & opt float 30000.0
      & info [ "shard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-read timeout on shard connections; a shard silent this long counts \
             as a transport failure (the job is replayed elsewhere).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Durable job journal directory: every admitted job is fsynced to a \
             write-ahead log before dispatch and marked done on reply, making \
             idempotency-keyed retries exactly-once across gateway restarts.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Recover from an existing journal at startup: re-dispatch unacked jobs \
             and restore the dedup map. Without this flag an existing journal is \
             discarded.")
  in
  let run listen shards_spec policy_name cache forwarders queue probe_period_ms
      fail_threshold shard_timeout_ms journal_dir recover trace_out jsonl =
    let policy =
      match Cs_gateway.Policy.of_string policy_name with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "gateway: %s\n" msg;
        exit 1
    in
    let shards =
      List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' shards_spec)
    in
    with_trace ?jsonl ~trace_out @@ fun () ->
    let addr = addr_of ~flag:"gateway" listen in
    let cfg =
      try
        Cs_gateway.Gateway.config ~policy ~cache_capacity:cache ~forwarders
          ~queue_capacity:queue
          ~probe_period_s:(probe_period_ms /. 1000.0)
          ~fail_threshold
          ~shard_timeout_s:(shard_timeout_ms /. 1000.0)
          ?journal_dir ~recover ~shards
          (Cs_svc.Transport.to_string addr)
      with Invalid_argument msg ->
        Printf.eprintf "gateway: %s\n" msg;
        exit 1
    in
    let gw =
      try Cs_gateway.Gateway.create cfg
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "gateway: cannot listen on %s: %s\n"
          (Cs_svc.Transport.to_string addr) (Unix.error_message e);
        exit 1
    in
    let stop _ = Cs_gateway.Gateway.stop gw in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "csched gateway: listening on %s (%d shards, %s policy, cache %d)\n%!"
      (Cs_svc.Transport.to_string (Cs_gateway.Gateway.address gw))
      (List.length shards) (Cs_gateway.Policy.to_string policy) cache;
    Cs_gateway.Gateway.run gw;
    let s = Cs_gateway.Gateway.stats gw in
    Printf.printf
      "drained: %d admitted, %d completed, %d refused (%d shed); %d forwarded, %d \
       replayed, cache %d/%d hit\n"
      s.Cs_gateway.Gateway.admitted s.Cs_gateway.Gateway.completed
      s.Cs_gateway.Gateway.refused s.Cs_gateway.Gateway.shed
      s.Cs_gateway.Gateway.forwarded s.Cs_gateway.Gateway.replayed
      s.Cs_gateway.Gateway.cache_hits
      (s.Cs_gateway.Gateway.cache_hits + s.Cs_gateway.Gateway.cache_misses)
  in
  Cmd.v (Cmd.info "gateway" ~doc)
    Term.(
      const run $ listen_arg $ shards_arg $ policy_arg $ cache_arg
      $ forwarders_arg $ queue_arg $ probe_period_arg $ fail_threshold_arg
      $ shard_timeout_arg $ journal_arg $ recover_arg $ trace_out_arg $ jsonl_arg)

let submit_cmd =
  let doc =
    "Submit a batch of jobs to a running `csched serve' and print one line per reply. \
     Exits non-zero on transport errors or when --strict is set and any job was \
     refused."
  in
  let bench_list_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmarks" ] ~docv:"B1,B2,..."
          ~doc:"Comma-separated benchmarks to submit (one job each).")
  in
  let machine_name_arg =
    Arg.(
      value & opt string "raw16"
      & info [ "m"; "machine" ] ~doc:"Target machine name sent with each job.")
  in
  let scheduler_name_arg =
    Arg.(
      value & opt string "convergent"
      & info [ "s"; "scheduler" ] ~doc:"Scheduler name sent with each job.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-job deadline sent with each job.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~doc:"Submit each job this many times.")
  in
  let jobs_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jobs" ] ~docv:"FILE"
          ~doc:
            "Read requests from $(docv) (JSON Lines, same format as the wire protocol) \
             instead of building them from flags.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 60.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-read socket timeout.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero if any job in the batch was shed or refused, not only on \
             transport errors.")
  in
  let tenant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Tenant name sent with each job (fair-admission accounting).")
  in
  let class_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "class" ] ~docv:"CLASS"
          ~doc:
            "Priority class sent with each job: $(b,interactive) or $(b,batch) \
             (default: derived from the deadline).")
  in
  let run connect bench_spec machine scheduler scale deadline_ms repeat jobs_file
      timeout strict tenant job_class =
    let from_flags () =
      match bench_spec with
      | None ->
        Printf.eprintf "submit: pass --benchmarks or --jobs FILE\n";
        exit 1
      | Some spec ->
        let benches =
          List.filter (fun b -> String.trim b <> "") (String.split_on_char ',' spec)
        in
        List.concat_map
          (fun bench ->
            List.init (max 1 repeat) (fun i ->
                Cs_svc.Proto.request
                  ~id:(Printf.sprintf "%s-%d" bench i)
                  ~machine ~scheduler ~scale ?deadline_ms ?tenant ?job_class bench))
          benches
    in
    let requests =
      match jobs_file with
      | None -> from_flags ()
      | Some path ->
        (match Cs_util.Fsio.read_opt path with
        | None ->
          Printf.eprintf "submit: cannot read %s\n" path;
          exit 1
        | Some text ->
          String.split_on_char '\n' text
          |> List.filter (fun l -> String.trim l <> "")
          |> List.mapi (fun i line ->
                 match Cs_svc.Proto.request_of_line line with
                 | Ok r -> r
                 | Error e ->
                   Printf.eprintf "submit: %s line %d: %s\n" path (i + 1) e;
                   exit 1))
    in
    if requests = [] then begin
      Printf.eprintf "submit: nothing to submit\n";
      exit 1
    end;
    (* Each job gets its own trace unless the jobs file carried one, so a
       merged `csched trace --merge` can follow it gateway -> shard. *)
    let requests =
      List.map
        (fun (r : Cs_svc.Proto.request) ->
          if r.Cs_svc.Proto.trace_id = None then
            Cs_svc.Proto.with_trace ~ctx:(Cs_obs.Tracectx.root ()) r
          else r)
        requests
    in
    let print_reply (r : Cs_svc.Proto.reply) =
      let cached = if r.Cs_svc.Proto.cached then " [cached]" else "" in
      match r.Cs_svc.Proto.verdict with
      | Cs_svc.Proto.Scheduled s ->
        Printf.printf
          "ok      %-16s %5d cycles, %3d transfers, rung %s%s%s (%.1f ms)\n%!"
          r.Cs_svc.Proto.reply_id s.cycles s.transfers s.rung
          (if s.timed_out then " [anytime]" else "")
          cached r.Cs_svc.Proto.elapsed_ms
      | Cs_svc.Proto.Refused e ->
        Printf.printf "refused %-16s %s: %s%s (%.1f ms)\n%!" r.Cs_svc.Proto.reply_id
          e.kind e.message cached r.Cs_svc.Proto.elapsed_ms
    in
    match
      Cs_svc.Client.submit ~timeout_s:timeout ~on_reply:print_reply
        ~addr:(addr_of ~flag:"submit" connect)
        requests
    with
    | Error msg ->
      Printf.eprintf "submit: %s\n" msg;
      exit 1
    | Ok replies ->
      (* Sheds are refusals too ([overloaded] / [quota-exceeded]); count
         them out separately so a --strict failure is attributable at a
         glance, and so the exit code provably covers both. *)
      let refused, shed =
        List.fold_left
          (fun (refused, shed) (r : Cs_svc.Proto.reply) ->
            match r.Cs_svc.Proto.verdict with
            | Cs_svc.Proto.Refused { kind; _ }
              when kind = "overloaded" || kind = "quota-exceeded" ->
              (refused + 1, shed + 1)
            | Cs_svc.Proto.Refused _ -> (refused + 1, shed)
            | Cs_svc.Proto.Scheduled _ -> (refused, shed))
          (0, 0) replies
      in
      Printf.printf "%d job%s: %d scheduled, %d refused (%d shed)\n"
        (List.length replies)
        (if List.length replies = 1 then "" else "s")
        (List.length replies - refused)
        refused shed;
      if List.length replies <> List.length requests then begin
        Printf.eprintf "submit: %d request%s went unanswered\n"
          (List.length requests - List.length replies)
          (if List.length requests - List.length replies = 1 then "" else "s");
        exit 1
      end;
      if strict && refused > 0 then begin
        Printf.eprintf "submit: --strict: %d of %d jobs shed or refused\n" refused
          (List.length replies);
        exit 1
      end
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ connect_arg $ bench_list_arg $ machine_name_arg
      $ scheduler_name_arg $ scale_arg $ deadline_arg $ repeat_arg $ jobs_file_arg
      $ timeout_arg $ strict_arg $ tenant_arg $ class_arg)

let metrics_cmd =
  let doc =
    "Dump the metrics registry of a running serve or gateway: Prometheus text \
     exposition by default, or the mergeable JSON snapshot (the same document the \
     [metrics] control verb carries on the wire) with --format json."
  in
  let format_conv =
    Arg.enum
      [ ("prometheus", Cs_svc.Proto.Metrics_prometheus);
        ("prom", Cs_svc.Proto.Metrics_prometheus);
        ("json", Cs_svc.Proto.Metrics_json) ]
  in
  let format_arg =
    Arg.(
      value & opt format_conv Cs_svc.Proto.Metrics_prometheus
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,prometheus) (text exposition) or $(b,json) (mergeable \
             snapshot).")
  in
  let run connect format =
    let addr = addr_of ~flag:"metrics" connect in
    match Cs_svc.Client.fetch_metrics ~format ~addr () with
    | Error e ->
      Printf.eprintf "metrics: %s: %s\n" (Cs_svc.Transport.to_string addr) e;
      exit 1
    | Ok (Cs_svc.Proto.Prom_text text) -> print_string text
    | Ok (Cs_svc.Proto.Snapshot snap) ->
      print_endline (Cs_obs.Json.to_string (Cs_obs.Metrics.snapshot_to_json snap))
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ connect_arg $ format_arg)

let top_cmd =
  let doc =
    "Live fleet dashboard: poll the [metrics] verb of a gateway and/or its shards, \
     merge the snapshots into fleet totals, and render per-process queue depth, \
     throughput, latency quantiles (p50/p95/p99 from merged histogram buckets), cache \
     hit rate, and deadline-SLO burn over the rolling 60 s / 300 s windows."
  in
  let shards_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shards" ] ~docv:"ADDR1,ADDR2,..."
          ~doc:"Shard addresses to poll alongside (or instead of) --connect.")
  in
  let period_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "period-ms" ] ~docv:"MS" ~doc:"Polling period.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) polls (0 = run until interrupted).")
  in
  (* Optional here: --shards alone polls only the shards; with neither
     flag, top polls the default address. *)
  let top_connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:(connect_doc ^ " Defaults to " ^ default_addr ^ " unless --shards is given."))
  in
  let module M = Cs_obs.Metrics in
  let counter_of snap name =
    M.fold_name snap name ~init:0 ~f:(fun acc _ e ->
        match e with M.Counter_v n -> acc + n | _ -> acc)
  in
  let gauge_of ?labels snap name =
    match M.find snap ?labels name with Some (M.Gauge_v v) -> v | _ -> 0.0
  in
  let histo_of snap name =
    match M.find snap name with Some (M.Histo_v h) -> Some h | _ -> None
  in
  let quantiles snap name =
    match histo_of snap name with
    | None -> "-"
    | Some h when M.total h = 0 -> "-"
    | Some h ->
      Printf.sprintf "%.1f/%.1f/%.1f ms" (M.quantile h 50.0) (M.quantile h 95.0)
        (M.quantile h 99.0)
  in
  let run connect shards_spec period_ms iterations =
    let targets =
      let named flag spec =
        match Cs_svc.Transport.parse spec with
        | Ok a -> (spec, a)
        | Error msg ->
          Printf.eprintf "top: %s: %s\n" flag msg;
          exit 1
      in
      let shard_targets =
        match shards_spec with
        | None -> []
        | Some spec ->
          String.split_on_char ',' spec
          |> List.filter (fun s -> String.trim s <> "")
          |> List.map (named "--shards")
      in
      match (connect, shard_targets) with
      | None, [] -> [ named "--connect" default_addr ]
      | None, shards -> shards
      | Some spec, shards -> named "--connect" spec :: shards
    in
    let period_s = Float.max 0.05 (period_ms /. 1000.0) in
    let clear = Unix.isatty Unix.stdout && iterations <> 1 in
    (* (completed, ts) per target at the previous poll, for jobs/s. *)
    let prev = Hashtbl.create 8 in
    let poll_one (label, addr) =
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Ok (Cs_svc.Proto.Snapshot snap) -> (label, Some snap)
      | Ok (Cs_svc.Proto.Prom_text _) | Error _ -> (label, None)
    in
    let render polled =
      if clear then print_string "\027[2J\027[H";
      let now = Cs_obs.Clock.now () in
      let table =
        Cs_util.Table.create
          ~header:
            [ "process"; "queue"; "busy"; "admitted"; "done"; "jobs/s";
              "p50/p95/p99"; "cache%" ]
      in
      let live = List.filter_map (fun (_, s) -> s) polled in
      let row label snap =
        let completed = counter_of snap "csched_jobs_completed_total" in
        let rate =
          match Hashtbl.find_opt prev label with
          | Some (c0, t0) when now > t0 ->
            Printf.sprintf "%.1f" (float_of_int (completed - c0) /. (now -. t0))
          | _ -> "-"
        in
        Hashtbl.replace prev label (completed, now);
        let hits = counter_of snap "csched_cache_hits_total" in
        let misses = counter_of snap "csched_cache_misses_total" in
        let cache =
          if hits + misses = 0 then "-"
          else Printf.sprintf "%.0f" (100.0 *. float_of_int hits /. float_of_int (hits + misses))
        in
        Cs_util.Table.add_row table
          [ label;
            Printf.sprintf "%.0f" (gauge_of snap "csched_queue_depth");
            Printf.sprintf "%.0f/%.0f"
              (gauge_of snap "csched_workers_busy")
              (gauge_of snap "csched_workers");
            string_of_int (counter_of snap "csched_jobs_admitted_total");
            string_of_int completed; rate;
            quantiles snap "csched_job_latency_ms"; cache ]
      in
      List.iter (fun (label, snap) ->
          match snap with
          | Some snap -> row label snap
          | None ->
            Cs_util.Table.add_row table
              [ label; "down"; "-"; "-"; "-"; "-"; "-"; "-" ])
        polled;
      if List.length polled > 1 then begin
        match live with
        | [] -> ()
        | _ -> row "FLEET" (M.merge_all live)
      end;
      Cs_util.Table.print table;
      (* SLO burn: windowed deadline hit/miss gauges from the merged view. *)
      let fleet = M.merge_all live in
      let burn window =
        let labels = [ ("window", window) ] in
        let h = gauge_of ~labels fleet "csched_deadline_hits" in
        let m = gauge_of ~labels fleet "csched_deadline_misses" in
        if h +. m <= 0.0 then "-"
        else Printf.sprintf "%.1f%%" (100.0 *. m /. (h +. m))
      in
      let dh = counter_of fleet "csched_deadline_hits_total" in
      let dm = counter_of fleet "csched_deadline_misses_total" in
      if dh + dm > 0 then
        Printf.printf "slo: %d/%d deadlines met; burn %s (60s) %s (300s)\n"
          dh (dh + dm) (burn "60s") (burn "300s");
      (* Per-tenant fairness view: fold csched_tenant_jobs_total by its
         tenant/outcome labels into one row per tenant. *)
      let tenants = Hashtbl.create 8 in
      ignore
        (M.fold_name fleet "csched_tenant_jobs_total" ~init:()
           ~f:(fun () key e ->
             match e with
             | M.Counter_v n ->
               let label k = Option.value ~default:"?" (List.assoc_opt k key.M.labels) in
               let tenant = label "tenant" in
               let adm, don, shd, quo =
                 Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt tenants tenant)
               in
               Hashtbl.replace tenants tenant
                 (match label "outcome" with
                 | "admitted" -> (adm + n, don, shd, quo)
                 | "completed" -> (adm, don + n, shd, quo)
                 | "shed" -> (adm, don, shd + n, quo)
                 | "quota" -> (adm, don, shd, quo + n)
                 | _ -> (adm, don, shd, quo))
             | _ -> ()));
      if Hashtbl.length tenants > 0 then begin
        let ttable =
          Cs_util.Table.create
            ~header:[ "tenant"; "admitted"; "done"; "shed"; "quota" ]
        in
        Hashtbl.fold (fun tenant row acc -> (tenant, row) :: acc) tenants []
        |> List.sort compare
        |> List.iter (fun (tenant, (adm, don, shd, quo)) ->
               Cs_util.Table.add_row ttable
                 [ tenant; string_of_int adm; string_of_int don;
                   string_of_int shd; string_of_int quo ]);
        Cs_util.Table.print ttable
      end;
      Printf.printf "%!"
    in
    let rec loop i =
      render (List.map poll_one targets);
      if iterations <= 0 || i + 1 < iterations then begin
        Unix.sleepf period_s;
        loop (i + 1)
      end
    in
    loop 0
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ top_connect_arg $ shards_arg $ period_arg $ iterations_arg)

let chaos_cmd = Chaos.cmd

let () =
  (* Every networked subcommand writes to sockets whose peer may vanish
     mid-write; set once here instead of per-command. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let doc = "convergent scheduling for spatial architectures (MICRO-35 reproduction)" in
  let info = Cmd.info "csched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; passes_cmd; run_cmd; run_file_cmd; compare_cmd; trace_cmd;
            profile_cmd; dot_cmd; tune_cmd; faults_cmd; fuzz_cmd; serve_cmd; submit_cmd;
            gateway_cmd; chaos_cmd; metrics_cmd; top_cmd ]))
