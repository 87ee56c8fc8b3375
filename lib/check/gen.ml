(* Deterministic scenario generation: one seed, one (region, machine,
   scheduler) case. All randomness flows through Cs_util.Rng, so a
   finding is replayable from its seed alone. *)

let shapes = [ "layered"; "thin"; "fat"; "trace"; "superblock"; "hyperblock" ]

(* The machine pool mirrors the paper's configurations (Raw meshes from
   1 to 16 tiles, clustered VLIWs from 1 to 8 clusters), weighted
   towards the evaluation machines. *)
let machine_pool =
  [|
    (fun () -> Cs_machine.Raw.with_tiles 2);
    (fun () -> Cs_machine.Raw.with_tiles 4);
    (fun () -> Cs_machine.Raw.with_tiles 4);
    (fun () -> Cs_machine.Raw.with_tiles 8);
    (fun () -> Cs_machine.Raw.with_tiles 16);
    (fun () -> Cs_machine.Raw.with_tiles 1);
    (fun () -> Cs_machine.Vliw.create ~n_clusters:2 ());
    (fun () -> Cs_machine.Vliw.create ~n_clusters:4 ());
    (fun () -> Cs_machine.Vliw.create ~n_clusters:4 ());
    (fun () -> Cs_machine.Vliw.create ~n_clusters:8 ());
    (fun () -> Cs_machine.Vliw.single_cluster ());
  |]

let congruence rng ~n_clusters =
  match Cs_util.Rng.int rng 3 with
  | 0 -> Cs_workloads.Congruence.interleaved ~n_banks:n_clusters
  | 1 -> Cs_workloads.Congruence.blocked ~n_banks:n_clusters ~block:(1 + Cs_util.Rng.int rng 4)
  | _ -> Cs_workloads.Congruence.unanalyzable

let layered rng ~n_clusters ~seed =
  Cs_workloads.Shapes.layered
    ~n:(12 + Cs_util.Rng.int rng 90)
    ~width:(4 + Cs_util.Rng.int rng 16)
    ~mem_fraction:(Cs_util.Rng.float rng 0.4)
    ~congruence:(congruence rng ~n_clusters)
    ~seed ()

let cfg_of rng ~n_clusters ~seed =
  Cs_cfg.Generate.acyclic
    ~segments:(2 + Cs_util.Rng.int rng 4)
    ~instrs_per_block:(2 + Cs_util.Rng.int rng 6)
    ~variables:(4 + Cs_util.Rng.int rng 6)
    ~mem_fraction:(Cs_util.Rng.float rng 0.4)
    ~banks:n_clusters ~seed ()

let pick_region rng regions ~fallback =
  match List.filter (fun r -> Cs_ddg.Region.n_instrs r > 0) regions with
  | [] -> fallback ()
  | nonempty -> List.nth nonempty (Cs_util.Rng.int rng (List.length nonempty))

(* Sweep the live-across-regions constraint: home a random subset of the
   region's live-in registers on random clusters (paper Sec. 5, values
   live across scheduling regions), unless the region already has homes. *)
let maybe_home_live_ins rng ~n_clusters region =
  let live_ins = Cs_ddg.Graph.live_in_regs region.Cs_ddg.Region.graph in
  if
    (not (Cs_ddg.Reg.Map.is_empty region.Cs_ddg.Region.live_in_homes))
    || Cs_ddg.Reg.Set.is_empty live_ins
    || Cs_util.Rng.int rng 3 > 0
  then region
  else begin
    let homes =
      Cs_ddg.Reg.Set.fold
        (fun r acc ->
          if Cs_util.Rng.bool rng then (r, Cs_util.Rng.int rng n_clusters) :: acc else acc)
        live_ins []
    in
    Cs_ddg.Region.make
      ~name:region.Cs_ddg.Region.name
      ~graph:region.Cs_ddg.Region.graph
      ~live_in_homes:homes
      ~live_outs:(Cs_ddg.Reg.Set.elements region.Cs_ddg.Region.live_outs)
      ()
  end

let region_of_shape rng shape ~n_clusters ~seed =
  let fallback () = layered rng ~n_clusters ~seed in
  match shape with
  | "layered" -> layered rng ~n_clusters ~seed
  | "thin" ->
    Cs_workloads.Shapes.thin
      ~chains:(1 + Cs_util.Rng.int rng 5)
      ~length:(3 + Cs_util.Rng.int rng 12)
      ~cross_links:(Cs_util.Rng.int rng 5)
      ~seed ()
  | "fat" ->
    Cs_workloads.Shapes.fat
      ~width:(2 + Cs_util.Rng.int rng 10)
      ~depth:(1 + Cs_util.Rng.int rng 6)
      ~seed ()
  | "trace" ->
    pick_region rng (Cs_cfg.Trace.regions (cfg_of rng ~n_clusters ~seed)) ~fallback
  | "superblock" ->
    let cfg', sbs = Cs_cfg.Superblock.form (cfg_of rng ~n_clusters ~seed) in
    pick_region rng
      (List.map (fun sb -> Cs_cfg.Trace.region_of_trace cfg' sb) sbs)
      ~fallback
  | "hyperblock" ->
    let cfg = cfg_of rng ~n_clusters ~seed in
    (try Cs_cfg.Hyperblock.region_of cfg ~entry:cfg.Cs_cfg.Cfg.entry
     with Invalid_argument _ ->
       pick_region rng (Cs_cfg.Trace.regions cfg) ~fallback)
  | _ -> fallback ()

let spec_of rng ~machine =
  match Cs_util.Rng.int rng 8 with
  | 0 -> Scenario.Baseline Cs_sim.Pipeline.Convergent
  | 1 -> Scenario.Baseline Cs_sim.Pipeline.Rawcc
  | 2 -> Scenario.Baseline Cs_sim.Pipeline.Uas
  | 3 -> Scenario.Baseline Cs_sim.Pipeline.Pcc
  | 4 -> Scenario.Baseline Cs_sim.Pipeline.Bug
  | 5 -> Scenario.Baseline Cs_sim.Pipeline.Anneal
  | _ ->
    (* Randomized convergent pass sequence drawn from the autotuner's
       validity-preserving genome space. *)
    (match Cs_tuner.Genome.to_passes (Cs_tuner.Genome.random rng machine) with
    | Ok passes -> Scenario.Passes passes
    | Error _ -> Scenario.Baseline Cs_sim.Pipeline.Convergent)

let shape_of_machine (machine : Cs_machine.Machine.t) =
  {
    Cs_resil.Fault.n_clusters = Cs_machine.Machine.n_clusters machine;
    issue_width = Cs_machine.Machine.issue_width machine;
    mesh =
      (match machine.Cs_machine.Machine.topology with
      | Cs_machine.Topology.Mesh { rows; cols; _ } -> Some (rows, cols)
      | Cs_machine.Topology.Crossbar _ -> None);
  }

(* Degraded mode draws faults (and pass corruption) from a sub-stream
   derived from the seed, after the base scenario is fully drawn: the
   degraded case is exactly the healthy case plus damage, so a finding
   on seed S can be A/B'd against the healthy seed S. *)
let maybe_faults ~seed ~machine region spec =
  let rng = Cs_util.Rng.create (seed lxor 0x0FA_0175) in
  let faults =
    if Cs_util.Rng.int rng 4 = 0 then []
    else begin
      let plan = Cs_resil.Fault.random rng ~shape:(shape_of_machine machine) in
      (* Keep the generator contract on the degraded machine too: a plan
         that strands a preplaced op (or every FU for some opcode) is
         dropped, not emitted as a guaranteed refusal. *)
      match Cs_machine.Machine.degrade machine plan with
      | degraded ->
        (match Cs_machine.Machine.validate_region degraded region with
        | Ok () -> plan
        | Error _ -> [])
      | exception Cs_resil.Error.Error _ -> []
    end
  in
  let spec =
    match spec with
    | Scenario.Passes passes when Cs_util.Rng.int rng 4 = 0 ->
      (* Sabotage the sequence with a CHAOS pass. In modes 0, 1, 3 and
         4 the driver must roll it back, and the oracle checks that the
         sequence without it schedules identically (see
         [Oracle.check_chaos] for the exceptions). *)
      let mode = Cs_util.Rng.int rng 5 in
      let at = Cs_util.Rng.int rng (List.length passes + 1) in
      let chaos = Cs_core.Chaos.pass ~mode () in
      Scenario.Passes
        (List.concat
           [ List.filteri (fun i _ -> i < at) passes; [ chaos ];
             List.filteri (fun i _ -> i >= at) passes ])
    | other -> other
  in
  (faults, spec)

let case_gen ~degraded ~seed =
  let rng = Cs_util.Rng.create seed in
  let machine = (Cs_util.Rng.choose rng machine_pool) () in
  let n_clusters = Cs_machine.Machine.n_clusters machine in
  let shape = List.nth shapes (Cs_util.Rng.int rng (List.length shapes)) in
  (* An independent sub-stream seeds the shape generator, so region
     structure does not depend on how many draws the shape used. *)
  let region_seed = seed lxor 0x2545F49 in
  let region = region_of_shape rng shape ~n_clusters ~seed:region_seed in
  let region = maybe_home_live_ins rng ~n_clusters region in
  let region, shape =
    (* Generator contract: every emitted case fits its machine. *)
    match Cs_machine.Machine.validate_region machine region with
    | Ok () -> (region, shape)
    | Error _ ->
      ( Cs_workloads.Shapes.layered ~n:30
          ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:n_clusters)
          ~seed:region_seed (),
        "layered" )
  in
  let spec = spec_of rng ~machine in
  let faults, spec =
    if degraded then maybe_faults ~seed ~machine region spec else ([], spec)
  in
  { Scenario.label = shape; seed; machine; faults; region; spec }

let case ~seed = case_gen ~degraded:false ~seed
let case_degraded ~seed = case_gen ~degraded:true ~seed
