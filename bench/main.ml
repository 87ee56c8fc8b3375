(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5), plus extension experiments.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one experiment
     dune exec bench/main.exe -- --list  # what's available

   Experiments print the same rows/series the paper reports; expected
   qualitative shapes are noted inline and tracked in EXPERIMENTS.md. *)

let experiments =
  [
    ("table2", "Rawcc vs convergent speedup, 2-16 Raw tiles", Exp_raw.table2);
    ("fig6", "16-tile speedups as a bar chart", Exp_raw.fig6);
    ("fig7", "convergence of spatial assignments on Raw", Exp_raw.fig7);
    ("fig8", "PCC vs UAS vs convergent on the 4-cluster VLIW", Exp_vliw.fig8);
    ("fig9", "convergence of spatial assignments on Chorus", Exp_vliw.fig9);
    ("fig10", "compile time vs input size", Exp_compile_time.fig10);
    ("ablation", "per-pass ablation (extension)", Exp_ablation.ablation);
    ("cluster", "CLUSTER pass integration, the paper's future work", Exp_ablation.cluster_integration);
    ("regalloc", "REGPRESS pass vs spills (extension)", Exp_ablation.regalloc);
    ("multiblock", "values live across scheduling regions (extension)", Exp_ablation.multiblock);
    ("baselines", "all schedulers on both machines (extension)", Exp_extra.baselines);
    ("scaling", "convergent scaling to 64 tiles (extension)", Exp_extra.scaling);
    ("iterate", "iterated convergence (extension)", Exp_extra.iterate);
    ("regions", "scheduling-unit formation comparison (extension)", Exp_regions.regions);
    ("tune", "evolutionary pass-sequence autotuner vs Table 1 (extension)", Exp_tune.tune);
    ("fuzz", "differential fuzzing throughput (extension)", Exp_fuzz.fuzz);
    ("faults", "fault injection and graceful degradation (extension)", Exp_resil.faults);
    ("slo", "latency SLO under per-job deadlines (extension)", Exp_slo.slo);
    ("gateway", "sharded gateway: result cache + failover (extension)", Exp_gateway.gateway);
    ("obs", "observability: sink + metrics throughput, telemetry overhead (extension)", Exp_obs.obs);
    ("serve", "overload: priority lanes, fair admission, brownout (extension)", Exp_serve.serve);
  ]

let print_sequences () =
  Report.section "Table 1: pass sequences used by the convergent scheduler";
  Printf.printf "(a) Raw:  %s\n"
    (String.concat " " (Cs_core.Sequence.names (Cs_core.Sequence.raw_default ())));
  Printf.printf "(b) VLIW: %s\n"
    (String.concat " " (Cs_core.Sequence.names (Cs_core.Sequence.vliw_default ())))

let run_all () =
  print_sequences ();
  List.iter (fun (_, _, f) -> f ()) experiments

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> run_all ()
  | [ _; "--list" ] ->
    List.iter (fun (name, doc, _) -> Printf.printf "%-10s %s\n" name doc) experiments
  | _ :: names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; try --list\n" name;
          exit 1)
      names
