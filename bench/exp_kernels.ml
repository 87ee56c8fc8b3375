(* Weight-matrix kernel micro-benchmark: rows/sec per convergent pass
   on the contiguous Bigarray matrix.

   Each pass is measured doing the driver's *whole* per-pass protocol,
   so the numbers reflect end-to-end pass cost, not just the inner
   loop:

     clear_touched; apply; normalize_validate_touched;
     sync_rows touched w->snapshot

   where [normalize_validate_touched] is the fused gate (renormalize
   and check each written row in one divide sweep) that
   [Driver.apply_round] runs after every pass.

   A last [blend] row times that kernel alone, the inner step of
   PATHPROP's walks.

   Machine-readable output lands in BENCH_kernels.json; CI runs this
   experiment and checks it reports one positive row per pass plus
   [blend]. *)

open Cs_core

let min_sample_s = 0.05

let time_reps f =
  (* Calibrate once, then take the best of three samples of [reps]
     calls each — the minimum is the usual low-noise estimator on a
     shared machine. *)
  let t0 = Cs_obs.Clock.now () in
  f ();
  let once = Cs_obs.Clock.since t0 in
  let reps =
    if once <= 0.0 then 400 else max 1 (min 400 (int_of_float (min_sample_s /. once)))
  in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t1 = Cs_obs.Clock.now () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Cs_obs.Clock.since t1 in
    if dt < !best then best := dt
  done;
  (reps, !best)

(* A realistic mid-convergence matrix: one full sequence application,
   normalized. *)
let settled ctx passes =
  let w =
    Weights.create ~n:(Context.n_instrs ctx) ~nc:(Context.n_clusters ctx) ~nt:ctx.Context.nt
  in
  List.iter
    (fun p ->
      p.Pass.apply ctx w;
      Weights.normalize_all w)
    passes;
  Weights.clear_touched w;
  w

(* Rows/sec for one pass doing the driver's whole per-pass protocol. *)
let bench_pass ctx passes pass =
  let n = Context.n_instrs ctx in
  let w = settled ctx passes in
  let snapshot = Weights.copy w in
  let step () =
    Weights.clear_touched w;
    pass.Pass.apply ctx w;
    ignore (Weights.normalize_validate_touched w);
    Weights.sync_rows ~rows:(Weights.touched_rows w) ~src:w ~dst:snapshot
  in
  let reps, elapsed = time_reps step in
  if elapsed > 0.0 then float_of_int (n * reps) /. elapsed else 0.0

(* Rows/sec of the [blend] kernel alone (PATHPROP's inner step): every
   row blended with its successor row, as a walk would. *)
let bench_blend ctx passes =
  let n = Context.n_instrs ctx in
  let w = settled ctx passes in
  let step () =
    for i = 0 to n - 1 do
      Weights.blend w ~dst:i ~src:((i + 1) mod n) ~keep:0.5
    done
  in
  let reps, elapsed = time_reps step in
  if elapsed > 0.0 then float_of_int (n * reps) /. elapsed else 0.0

let kernels () =
  Report.section "Kernels: Bigarray weight-matrix passes (extension)";
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let region = Cs_workloads.Sha.generate ~scale:4 ~clusters:4 () in
  let ctx = Context.make ~nt_cap:64 ~machine region in
  let passes = Sequence.vliw_default () in
  Printf.printf "workload sha (scale 4), machine vliw-4c: n=%d nc=%d nt=%d\n%!"
    (Context.n_instrs ctx) (Context.n_clusters ctx) ctx.Context.nt;
  Printf.printf "\n%-10s %15s\n" "pass" "rows/s";
  let rows =
    List.map
      (fun (name, bench) ->
        let r = bench () in
        Printf.printf "%-10s %15.0f\n%!" name r;
        (name, r))
      (List.map (fun pass -> (pass.Pass.name, fun () -> bench_pass ctx passes pass)) passes
      @ [ ("blend", fun () -> bench_blend ctx passes) ])
  in
  let open Cs_obs.Json in
  let json =
    Obj
      [ ("experiment", Str "kernels");
        ("workload", Str "sha-scale4");
        ("machine", Str "vliw-4c");
        ("n", Num (float_of_int (Context.n_instrs ctx)));
        ("nc", Num (float_of_int (Context.n_clusters ctx)));
        ("nt", Num (float_of_int ctx.Context.nt));
        ( "passes",
          List
            (List.map (fun (name, r) -> Obj [ ("pass", Str name); ("rows_per_s", Num r) ]) rows)
        ) ]
  in
  Cs_util.Fsio.write_atomic ~path:"BENCH_kernels.json" (to_string json ^ "\n");
  Printf.printf "\nwrote BENCH_kernels.json\n"
