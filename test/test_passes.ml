(* Behavioural tests for every convergent pass. Each test constructs a
   small region where the pass's effect is unambiguous. *)

open Cs_core

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()

(* const -> fadd -> fadd chain, plus a preplaced load feeding the tail. *)
let anchored_chain ?(home = 2) () =
  let b = Cs_ddg.Builder.create ~name:"chain" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let v = Cs_ddg.Builder.load b ~preplace:home addr in
  let _tail = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fadd x v in
  Cs_ddg.Builder.finish b

let fresh region machine =
  let ctx = Context.make ~machine region in
  let w =
    Weights_ref.uniform ~n:(Context.n_instrs ctx) ~nc:(Context.n_clusters ctx)
      ~nt:ctx.Context.nt
  in
  (ctx, w)

let run_pass pass ctx w =
  pass.Pass.apply ctx w;
  Weights_ref.gate w

(* --- INITTIME --- *)

let test_inittime_squashes_infeasible () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Inittime.pass ()) ctx w;
  let a = ctx.Context.analysis in
  for i = 0 to Weights.n w - 1 do
    let lo = Context.clamp_slot ctx (Cs_ddg.Analysis.earliest a i) in
    let hi = Context.clamp_slot ctx (Cs_ddg.Analysis.latest a i) in
    for t = 0 to Weights.nt w - 1 do
      if t < lo || t > hi then
        Alcotest.(check (float 1e-12)) "squashed" 0.0 (Weights_ref.time_weight w i t)
    done;
    check_bool "feasible window kept" true (Weights_ref.time_weight w i lo > 0.0)
  done

let test_inittime_critical_single_slot () =
  let b = Cs_ddg.Builder.create ~name:"serial" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add x in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Inittime.pass ()) ctx w;
  (* Every instruction of a pure chain is critical: one feasible slot. *)
  for i = 0 to 2 do
    let feasible = ref 0 in
    for t = 0 to Weights.nt w - 1 do
      if Weights_ref.time_weight w i t > 0.0 then incr feasible
    done;
    check_int "single slot" 1 !feasible
  done

(* --- NOISE --- *)

let test_noise_breaks_symmetry () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Noise.pass ()) ctx w;
  let distinct = ref false in
  for c = 0 to 3 do
    if Float.abs (Weights.cluster_weight w 0 c -. 0.25) > 1e-9 then distinct := true
  done;
  check_bool "weights perturbed" true !distinct;
  check_bool "invariants" true (Weights.Inspect.check_invariants w = Ok ())

let test_noise_preserves_zeros () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Inittime.pass ()) ctx w;
  let a = ctx.Context.analysis in
  run_pass (Noise.pass ()) ctx w;
  let i = 4 (* tail instruction, earliest > 0 *) in
  check_bool "tail starts late" true (Cs_ddg.Analysis.earliest a i > 0);
  Alcotest.(check (float 1e-12)) "slot 0 still zero" 0.0 (Weights_ref.time_weight w i 0)

let test_noise_deterministic_per_seed () =
  let region = anchored_chain () in
  let run seed =
    let ctx = Context.make ~seed ~machine:vliw4 region in
    let w = Weights_ref.uniform ~n:(Context.n_instrs ctx) ~nc:4 ~nt:ctx.Context.nt in
    run_pass (Noise.pass ()) ctx w;
    Weights.get w 0 0 0
  in
  Alcotest.(check (float 1e-15)) "same seed same noise" (run 5) (run 5);
  check_bool "different seed different noise" true (run 5 <> run 6)

(* --- PLACE --- *)

let test_place_boosts_home () =
  let region = anchored_chain ~home:2 () in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  check_int "load prefers home" 2 (Weights.preferred_cluster w 3);
  check_bool "strong confidence" true (Weights.confidence w 3 > 10.0)

let test_place_leaves_others_uniform () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  (* Instruction 0 (const) is unanchored: stays uniform. *)
  Alcotest.(check (float 1e-9)) "uniform" 0.25 (Weights.cluster_weight w 0 0)

let test_place_live_in_soft_boost () =
  let b = Cs_ddg.Builder.create ~name:"li" () in
  let x = Cs_ddg.Builder.live_in ~home:1 b in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd x in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  check_int "consumer leans home" 1 (Weights.preferred_cluster w 0)

(* --- FIRST --- *)

let test_first_prefers_cluster_zero () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (First.pass ()) ctx w;
  for i = 0 to Weights.n w - 1 do
    check_int "cluster 0 preferred" 0 (Weights.preferred_cluster w i)
  done

(* --- PATH --- *)

let test_path_keeps_critical_path_together () =
  let b = Cs_ddg.Builder.create ~name:"cp" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let c1 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fmul k in
  let c2 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fmul c1 in
  let _c3 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fmul c2 in
  let _side = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Mov k in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Path.pass ()) ctx w;
  let cp = Cs_ddg.Analysis.critical_path ctx.Context.analysis in
  check_bool "path nonempty" true (cp <> []);
  let target = Weights.preferred_cluster w (List.hd cp) in
  List.iter (fun i -> check_int "same cluster" target (Weights.preferred_cluster w i)) cp

let test_path_follows_anchor () =
  let region = anchored_chain ~home:3 () in
  let ctx, w = fresh region vliw4 in
  (* PLACE + PLACEPROP establish a confident bias toward the anchor;
     PATH then moves the whole critical path there. *)
  run_pass (Place.pass ()) ctx w;
  run_pass (Placeprop.pass ()) ctx w;
  run_pass (Path.pass ()) ctx w;
  let cp = Cs_ddg.Analysis.critical_path ctx.Context.analysis in
  List.iter
    (fun i -> check_int "path on anchor cluster" 3 (Weights.preferred_cluster w i))
    cp

(* --- COMM --- *)

let test_comm_pulls_toward_neighbors () =
  let region = anchored_chain ~home:1 () in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  run_pass (Comm.pass ()) ctx w;
  (* Tail (4) consumes the anchored load (3): should lean to cluster 1. *)
  check_int "tail follows neighbor" 1 (Weights.preferred_cluster w 4)

let test_comm_grand_reaches_two_hops () =
  let b = Cs_ddg.Builder.create ~name:"2hop" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let v = Cs_ddg.Builder.load b ~preplace:2 addr in
  let m = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd v in
  let _f = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd m in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  run_pass (Comm.pass ~grand:true ()) ctx w;
  check_int "grandchild pulled" 2 (Weights.preferred_cluster w 3)

let test_comm_per_slot_variant_runs () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Comm.pass ~per_slot:true ()) ctx w;
  check_bool "invariants" true (Weights.Inspect.check_invariants w = Ok ())

(* --- PLACEPROP --- *)

let test_placeprop_pulls_to_anchor_cluster () =
  let region = anchored_chain ~home:2 () in
  let ctx, w = fresh region vliw4 in
  run_pass (Placeprop.pass ()) ctx w;
  (* Tail (4) is at distance 1 of the anchor; its weight on cluster 2 is
     divided by 1, on others left alone only if they have no anchors —
     here only cluster 2 has anchors so the tail must lean to 2. *)
  check_int "tail pulled" 2 (Weights.preferred_cluster w 4)

let test_placeprop_weighted_majority () =
  (* One node between one anchor on cluster 0 and two anchors on 1. *)
  let b = Cs_ddg.Builder.create ~name:"maj" () in
  let a0 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let l0 = Cs_ddg.Builder.load b ~preplace:0 a0 in
  let a1 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let l1 = Cs_ddg.Builder.load b ~preplace:1 a1 in
  let a2 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let l2 = Cs_ddg.Builder.load b ~preplace:1 a2 in
  let _sum = Cs_ddg.Builder.op3 b Cs_ddg.Opcode.Select l0 l1 l2 in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Placeprop.pass ~mode:Placeprop.Weighted ()) ctx w;
  check_int "majority bank wins" 1 (Weights.preferred_cluster w 6)

let test_placeprop_no_anchors_noop () =
  let b = Cs_ddg.Builder.create ~name:"none" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Placeprop.pass ()) ctx w;
  Alcotest.(check (float 1e-9)) "still uniform" 0.25 (Weights.cluster_weight w 0 0)

(* --- LOAD --- *)

let test_load_rebalances () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  (* Pile everything on cluster 0 softly. *)
  for i = 0 to Weights.n w - 1 do
    Weights.scale_cluster w i 0 3.0
  done;
  Weights_ref.gate w;
  let before = Weights.cluster_weight w 0 0 in
  run_pass (Load.pass ()) ctx w;
  check_bool "cluster 0 deflated" true (Weights.cluster_weight w 0 0 < before)

(* --- LEVEL --- *)

let test_level_distributes_wide_layer () =
  let b = Cs_ddg.Builder.create ~name:"wide" () in
  for _ = 1 to 8 do
    let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
    ignore (Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k)
  done;
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Level.pass ~stride:4 ()) ctx w;
  let used = Array.make 4 false in
  for i = 0 to Weights.n w - 1 do
    used.(Weights.preferred_cluster w i) <- true
  done;
  check_bool "several clusters used" true (Array.to_list used |> List.filter Fun.id |> List.length >= 3)

let test_level_respects_confident_bins () =
  let region = anchored_chain ~home:1 () in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  let before = Weights.preferred_cluster w 3 in
  run_pass (Level.pass ()) ctx w;
  check_int "confident instr keeps bin" before (Weights.preferred_cluster w 3)

(* The rescanning LEVEL formulation, kept verbatim as the oracle for
   the incremental one: per round-robin step it recomputes every
   unassigned instruction's distance to every bin from the members. *)
module Naive_level = struct
  let distance_to_bin a i = function
    | [] -> max_int
    | members ->
      let row = Cs_ddg.Analysis.distance_row a i in
      List.fold_left (fun acc m -> min acc row.(m)) max_int members

  let distribute_group ctx w ~granularity ~confidence_threshold ~boost group =
    let a = ctx.Context.analysis in
    let nc = Weights.nc w in
    let bins = Array.make nc [] in
    let unassigned = ref [] in
    List.iter
      (fun i ->
        if Weights.confidence w i >= confidence_threshold then begin
          let c = Weights.preferred_cluster w i in
          bins.(c) <- i :: bins.(c)
        end
        else unassigned := i :: !unassigned)
      group;
    let unassigned = ref (List.rev !unassigned) in
    let closest_bin_distance i =
      let best = ref max_int in
      Array.iter
        (fun members ->
          if members <> [] then best := min !best (distance_to_bin a i members))
        bins;
      !best
    in
    let next_bin = ref 0 in
    while !unassigned <> [] do
      let b = !next_bin in
      next_bin := (!next_bin + 1) mod nc;
      let far = List.filter (fun i -> closest_bin_distance i > granularity) !unassigned in
      let candidates = if far = [] then !unassigned else far in
      let chosen =
        List.fold_left
          (fun acc i ->
            let d = distance_to_bin a i bins.(b) in
            match acc with
            | Some (bd, _) when bd >= d -> acc
            | Some _ | None -> Some (d, i))
          None candidates
      in
      match chosen with
      | None -> unassigned := []
      | Some (_, i) ->
        bins.(b) <- i :: bins.(b);
        unassigned := List.filter (fun j -> j <> i) !unassigned;
        Weights.scale_cluster w i b boost
    done

  let apply ~stride ~granularity ~confidence_threshold ~boost ctx w =
    let a = ctx.Context.analysis in
    let deepest = Cs_ddg.Analysis.max_depth a in
    let lbase = ref 0 in
    while !lbase <= deepest do
      let group = ref [] in
      for i = Weights.n w - 1 downto 0 do
        let d = Cs_ddg.Analysis.depth a i in
        if d >= !lbase && d < !lbase + stride then group := i :: !group
      done;
      if !group <> [] then
        distribute_group ctx w ~granularity ~confidence_threshold ~boost !group;
      lbase := !lbase + stride
    done
end

(* A random DAG of several disconnected components (so distance rows
   hold [max_int]), some of them single constants. *)
let random_dag rng =
  let b = Cs_ddg.Builder.create ~name:"components" () in
  for _ = 1 to 1 + Cs_util.Rng.int rng 5 do
    let values = ref [||] in
    for _ = 1 to 1 + Cs_util.Rng.int rng 14 do
      let n = Array.length !values in
      let pick () = !values.(Cs_util.Rng.int rng n) in
      let v =
        if n = 0 || Cs_util.Rng.int rng 5 = 0 then Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const
        else if Cs_util.Rng.bool rng then Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd (pick ())
        else Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fmul (pick ()) (pick ())
      in
      values := Array.append !values [| v |]
    done
  done;
  Cs_ddg.Builder.finish b

let level_machines =
  [| Cs_machine.Vliw.create ~n_clusters:2 (); vliw4; Cs_machine.Raw.with_tiles 16 |]

(* Thresholds: 1.0 makes nearly every row confident (a confidence is
   the top cluster weight over the runner-up's), 1e12 none; in between,
   rows skewed below draw a mix. *)
let level_case_gen =
  QCheck.Gen.(
    map
      (fun (seed, m, th, (stride, gran)) -> (seed, m, th, stride, gran))
      (quad (int_bound 100_000) (int_bound 2)
         (oneofl [ 1.0; 1.5; 2.0; 3.0; 1e12 ])
         (pair (int_range 1 4) (int_range 0 3))))

let print_level_case (seed, m, th, stride, gran) =
  Printf.sprintf "seed=%d nc=%d threshold=%g stride=%d granularity=%d" seed
    (Cs_machine.Machine.n_clusters level_machines.(m)) th stride gran

let prop_level_matches_naive =
  QCheck.Test.make ~count:300 ~name:"incremental LEVEL = naive LEVEL, bit for bit"
    (QCheck.make ~print:print_level_case level_case_gen)
    (fun (seed, m, threshold, stride, granularity) ->
      let rng = Cs_util.Rng.create seed in
      let region = random_dag rng in
      let ctx, w = fresh region level_machines.(m) in
      (* Skew some rows toward a cluster so their confidence varies. *)
      for i = 0 to Weights.n w - 1 do
        if Cs_util.Rng.bool rng then
          Weights.scale_cluster w i
            (Cs_util.Rng.int rng (Weights.nc w))
            (1.0 +. Cs_util.Rng.float rng 4.0)
      done;
      Weights_ref.gate w;
      let naive = Weights.copy w in
      let boost = 2.5 in
      (Level.pass ~stride ~granularity ~confidence_threshold:threshold ~boost ()).Pass.apply
        ctx w;
      Naive_level.apply ~stride ~granularity ~confidence_threshold:threshold ~boost ctx naive;
      let same = ref true in
      for i = 0 to Weights.n w - 1 do
        for c = 0 to Weights.nc w - 1 do
          for t = 0 to Weights.nt w - 1 do
            if Int64.bits_of_float (Weights.get w i c t)
               <> Int64.bits_of_float (Weights.get naive i c t)
            then same := false
          done;
          if Int64.bits_of_float (Weights.cluster_weight w i c)
             <> Int64.bits_of_float (Weights.cluster_weight naive i c)
          then same := false
        done
      done;
      !same)

(* Everything observable about a matrix — entries, the marginals,
   touched flags — for comparison with [=]. *)
let matrix_state w =
  List.init (Weights.n w) (fun i ->
      ( Array.init (Weights.nc w) (fun c -> Array.init (Weights.nt w) (Weights.get w i c)),
        Array.init (Weights.nc w) (Weights.cluster_weight w i),
        Weights.row_total w i,
        Weights.is_touched w i ))

(* A random DAG on one of [level_machines], with some rows skewed toward
   a cluster (so confidences and pulls vary), normalized, touched flags
   cleared: the state a pass meets inside the driver. A row's factor is
   drawn in [1, 5), or with [tied] is 2 or 3, so that many rows share a
   confidence. *)
let skewed_start ?(tied = false) seed m =
  let rng = Cs_util.Rng.create seed in
  let ctx, w = fresh (random_dag rng) level_machines.(m) in
  for i = 0 to Weights.n w - 1 do
    if Cs_util.Rng.bool rng then
      Weights.scale_cluster w i
        (Cs_util.Rng.int rng (Weights.nc w))
        (if tied then if Cs_util.Rng.bool rng then 2.0 else 3.0
         else 1.0 +. Cs_util.Rng.float rng 4.0)
  done;
  Weights_ref.gate w;
  Weights_ref.clear_touched w;
  (ctx, w)

(* COMM as it was written before the marginal mode dropped its
   snapshot: a full [Weights.copy] read throughout, and a [Hashtbl] of
   seen ids per instruction for the two-hop walk. *)
module Snapshot_comm = struct
  let two_hop graph i =
    let direct = Cs_ddg.Graph.neighbors graph i in
    let seen = Hashtbl.create 16 in
    Hashtbl.add seen i ();
    List.iter (fun j -> Hashtbl.replace seen j ()) direct;
    let grand = ref [] in
    List.iter
      (fun j ->
        List.iter
          (fun k ->
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              grand := k :: !grand
            end)
          (Cs_ddg.Graph.neighbors graph j))
      direct;
    (direct, !grand)

  let apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ctx w =
    let graph = Context.graph ctx in
    let snap = Weights.copy w in
    let factors = Array.make (Weights.nc w) 0.0 in
    for i = 0 to Weights.n w - 1 do
      let direct, grands =
        if grand then two_hop graph i else (Cs_ddg.Graph.neighbors graph i, [])
      in
      if direct <> [] || grands <> [] then
        if per_slot then
          for c = 0 to Weights.nc w - 1 do
            for tt = 0 to Weights.nt w - 1 do
              let pull = ref 0.0 in
              List.iter (fun j -> pull := !pull +. Weights.get snap j c tt) direct;
              List.iter
                (fun j -> pull := !pull +. (grand_weight *. Weights.get snap j c tt))
                grands;
              Weights.scale w i c tt (eps +. !pull)
            done
          done
        else begin
          for c = 0 to Weights.nc w - 1 do
            let pull = ref 0.0 in
            List.iter (fun j -> pull := !pull +. Weights.cluster_weight snap j c) direct;
            List.iter
              (fun j -> pull := !pull +. (grand_weight *. Weights.cluster_weight snap j c))
              grands;
            factors.(c) <- eps +. !pull
          done;
          Weights.scale_clusters w i factors
        end
    done;
    if strengthen_preferred > 1.0 then
      for i = 0 to Weights.n w - 1 do
        let pc = Weights.preferred_cluster w i and pt = Weights.preferred_time w i in
        Weights.scale w i pc pt strengthen_preferred
      done
end

(* [random_dag]'s two-operand ops may read one value twice, so the
   generated regions include repeated-operand edges. *)
let comm_case_gen =
  QCheck.Gen.(
    map
      (fun ((seed, m), (grand, per_slot), (grand_weight, strengthen)) ->
        (seed, m, grand, per_slot, grand_weight, strengthen))
      (triple
         (pair (int_bound 100_000) (int_bound 2))
         (pair bool bool)
         (pair (float_bound_inclusive 2.0) (oneofl [ 1.0; 2.0; 3.5 ]))))

let print_comm_case (seed, m, grand, per_slot, grand_weight, strengthen) =
  Printf.sprintf "seed=%d nc=%d grand=%b per_slot=%b grand_weight=%h strengthen=%g" seed
    (Cs_machine.Machine.n_clusters level_machines.(m)) grand per_slot grand_weight strengthen

let prop_comm_matches_snapshot =
  QCheck.Test.make ~count:300 ~name:"COMM = snapshot-and-Hashtbl COMM, bit for bit"
    (QCheck.make ~print:print_comm_case comm_case_gen)
    (fun (seed, m, grand, per_slot, grand_weight, strengthen_preferred) ->
      let ctx, w = skewed_start seed m in
      let reference = Weights.copy w in
      let eps = 1e-4 in
      (Comm.pass ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ()).Pass.apply ctx w;
      Snapshot_comm.apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ctx
        reference;
      matrix_state w = matrix_state reference)

(* --- PATHPROP --- *)

let test_pathprop_propagates_downward () =
  let b = Cs_ddg.Builder.create ~name:"pp" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let v = Cs_ddg.Builder.load b ~preplace:3 addr in
  let d1 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd v in
  let _d2 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd d1 in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  run_pass (Pathprop.pass ~confidence_threshold:1.5 ()) ctx w;
  check_int "child pulled" 3 (Weights.preferred_cluster w 2);
  check_int "grandchild pulled" 3 (Weights.preferred_cluster w 3)

let test_pathprop_noop_without_confidence () =
  let region = anchored_chain () in
  let ctx, w = fresh region vliw4 in
  run_pass (Pathprop.pass ()) ctx w;
  Alcotest.(check (float 1e-9)) "uniform stays" 0.25 (Weights.cluster_weight w 0 0)

let pathprop_case_gen =
  QCheck.Gen.(
    quad (int_bound 100_000) (int_bound 2)
      (float_range 1.0 4.0)
      (oneofl [ 0.0; 0.5; 1.0 ]))

let print_pathprop_case (seed, m, th, keep) =
  Printf.sprintf "seed=%d nc=%d threshold=%h blend_keep=%g" seed
    (Cs_machine.Machine.n_clusters level_machines.(m)) th keep

(* PATHPROP against [Pathprop_ref], its spelling with no confidence
   cache and the [Array.stable_sort] it used before
   [Weights.claim_order]. Odd seeds start tied, so many rows share a
   confidence and the order of ties decides which row a walk blends
   first. The entries, caches, touched flags and every row's
   confidence must agree bit for bit. *)
let prop_pathprop_matches_recompute =
  QCheck.Test.make ~count:300 ~name:"cached-confidence PATHPROP = recomputing PATHPROP, bit for bit"
    (QCheck.make ~print:print_pathprop_case pathprop_case_gen)
    (fun (seed, m, confidence_threshold, blend_keep) ->
      let ctx, w = skewed_start ~tied:(seed mod 2 = 1) seed m in
      let reference = Weights.copy w in
      (Pathprop.pass ~confidence_threshold ~blend_keep ()).Pass.apply ctx w;
      Pathprop_ref.apply ~confidence_threshold ~blend_keep ctx reference;
      let bits w =
        let conf = Array.make (Weights.n w) 0.0 in
        Weights.confidences w conf;
        ( List.map
            (fun (e, lanes, total, touched) ->
              ( Array.map (Array.map Int64.bits_of_float) e,
                Array.map Int64.bits_of_float lanes,
                Int64.bits_of_float total,
                touched ))
            (matrix_state w),
          Array.map Int64.bits_of_float conf )
      in
      bits w = bits reference)

(* --- EMPHCP --- *)

let test_emphcp_prefers_asap_slot () =
  let b = Cs_ddg.Builder.create ~name:"em" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add x in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Emphcp.pass ()) ctx w;
  check_int "instr 1 at its level" (Cs_ddg.Analysis.earliest ctx.Context.analysis 1)
    (Weights.preferred_time w 1)

(* --- FEASIBLE --- *)

let test_feasible_squashes_incapable_clusters () =
  (* A heterogeneous machine: cluster 0 integer-only, cluster 1 fp-only. *)
  let machine =
    Cs_machine.Machine.make ~name:"hetero"
      ~fus:[| [| Cs_machine.Fu.Int_alu; Cs_machine.Fu.Int_mem |];
              [| Cs_machine.Fu.Float_unit; Cs_machine.Fu.Int_mem |] |]
      ~topology:(Cs_machine.Topology.Crossbar { latency = 1 })
      ()
  in
  let b = Cs_ddg.Builder.create ~name:"het" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _f = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region machine in
  run_pass (Feasible.pass ()) ctx w;
  check_int "fadd forced to fp cluster" 1 (Weights.preferred_cluster w 1);
  Alcotest.(check (float 1e-12)) "cluster 0 squashed" 0.0 (Weights.cluster_weight w 1 0)

(* --- REGPRESS --- *)

let test_regpress_relieves_overloaded_cluster () =
  (* Many values defined and consumed late: pressure on one cluster. *)
  let b = Cs_ddg.Builder.create ~name:"rp" () in
  let defs = List.init 12 (fun _ -> Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const) in
  let _sum = Cs_workloads.Prog.reduce b Cs_ddg.Opcode.Fadd defs in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  (* Pile all defs on cluster 0 with moderate confidence. *)
  for i = 0 to 11 do
    Weights.scale_cluster w i 0 1.5
  done;
  Weights_ref.gate w;
  run_pass (Regpress.pass ~registers_per_cluster:4 ()) ctx w;
  let still_on_zero = ref 0 in
  for i = 0 to 11 do
    if Weights.preferred_cluster w i = 0 then incr still_on_zero
  done;
  check_bool "some moved off" true (!still_on_zero < 12)

(* --- CLUSTER (the paper's future-work clustering integration) --- *)

let test_cluster_groups_chains () =
  (* Two independent chains: each becomes one group. *)
  let b = Cs_ddg.Builder.create ~name:"chains" () in
  let mk () =
    let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
    let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k in
    ignore (Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd x)
  in
  mk (); mk ();
  let region = Cs_ddg.Builder.finish b in
  let ctx = Context.make ~machine:vliw4 region in
  let groups = Cluster.groups ctx in
  check_int "two groups" 2 (List.length groups);
  List.iter (fun g -> check_int "chain of three" 3 (List.length g)) groups

let test_cluster_pulls_group_to_consensus () =
  let b = Cs_ddg.Builder.create ~name:"pull" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let v = Cs_ddg.Builder.load b ~preplace:2 addr in
  let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd v in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd x in
  let region = Cs_ddg.Builder.finish b in
  let ctx, w = fresh region vliw4 in
  run_pass (Place.pass ()) ctx w;
  run_pass (Cluster.pass ()) ctx w;
  (* The whole chain (load + both adds) converges on the anchor's bank. *)
  check_int "x follows" 2 (Weights.preferred_cluster w 2);
  check_int "y follows" 2 (Weights.preferred_cluster w 3)

let test_cluster_never_merges_conflicting_homes () =
  let b = Cs_ddg.Builder.create ~name:"conf" () in
  let a0 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let l0 = Cs_ddg.Builder.load b ~preplace:0 a0 in
  let a1 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let l1 = Cs_ddg.Builder.load b ~preplace:1 a1 in
  let _sum = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fadd l0 l1 in
  let region = Cs_ddg.Builder.finish b in
  let ctx = Context.make ~machine:vliw4 region in
  List.iter
    (fun group ->
      let homes =
        List.filter_map (fun i -> Context.home_of ctx i) group |> List.sort_uniq Int.compare
      in
      check_bool "single home per group" true (List.length homes <= 1))
    (Cluster.groups ctx)

let () =
  Alcotest.run "cs_core.passes"
    [
      ( "inittime",
        [
          Alcotest.test_case "squashes infeasible" `Quick test_inittime_squashes_infeasible;
          Alcotest.test_case "critical single slot" `Quick test_inittime_critical_single_slot;
        ] );
      ( "noise",
        [
          Alcotest.test_case "breaks symmetry" `Quick test_noise_breaks_symmetry;
          Alcotest.test_case "preserves zeros" `Quick test_noise_preserves_zeros;
          Alcotest.test_case "deterministic" `Quick test_noise_deterministic_per_seed;
        ] );
      ( "place",
        [
          Alcotest.test_case "boosts home" `Quick test_place_boosts_home;
          Alcotest.test_case "others uniform" `Quick test_place_leaves_others_uniform;
          Alcotest.test_case "live-in soft boost" `Quick test_place_live_in_soft_boost;
        ] );
      ("first", [ Alcotest.test_case "prefers cluster 0" `Quick test_first_prefers_cluster_zero ]);
      ( "path",
        [
          Alcotest.test_case "keeps path together" `Quick test_path_keeps_critical_path_together;
          Alcotest.test_case "follows anchor" `Quick test_path_follows_anchor;
        ] );
      ( "comm",
        [
          Alcotest.test_case "pulls to neighbors" `Quick test_comm_pulls_toward_neighbors;
          Alcotest.test_case "grand two hops" `Quick test_comm_grand_reaches_two_hops;
          Alcotest.test_case "per-slot variant" `Quick test_comm_per_slot_variant_runs;
          to_alcotest prop_comm_matches_snapshot;
        ] );
      ( "placeprop",
        [
          Alcotest.test_case "pulls to anchor" `Quick test_placeprop_pulls_to_anchor_cluster;
          Alcotest.test_case "weighted majority" `Quick test_placeprop_weighted_majority;
          Alcotest.test_case "no anchors noop" `Quick test_placeprop_no_anchors_noop;
        ] );
      ("load", [ Alcotest.test_case "rebalances" `Quick test_load_rebalances ]);
      ( "level",
        [
          Alcotest.test_case "distributes layer" `Quick test_level_distributes_wide_layer;
          Alcotest.test_case "respects bins" `Quick test_level_respects_confident_bins;
          to_alcotest prop_level_matches_naive;
        ] );
      ( "pathprop",
        [
          Alcotest.test_case "propagates down" `Quick test_pathprop_propagates_downward;
          Alcotest.test_case "noop without confidence" `Quick test_pathprop_noop_without_confidence;
          to_alcotest prop_pathprop_matches_recompute;
        ] );
      ("emphcp", [ Alcotest.test_case "asap slot" `Quick test_emphcp_prefers_asap_slot ]);
      ("feasible", [ Alcotest.test_case "squashes incapable" `Quick test_feasible_squashes_incapable_clusters ]);
      ("regpress", [ Alcotest.test_case "relieves pressure" `Quick test_regpress_relieves_overloaded_cluster ]);
      ( "cluster",
        [
          Alcotest.test_case "groups chains" `Quick test_cluster_groups_chains;
          Alcotest.test_case "pulls to consensus" `Quick test_cluster_pulls_group_to_consensus;
          Alcotest.test_case "no conflicting homes" `Quick test_cluster_never_merges_conflicting_homes;
        ] );
    ]
