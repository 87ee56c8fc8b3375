(* Tests for the preference matrix, including qcheck invariants. *)

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

open Cs_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let ok_invariants w =
  match Weights.Inspect.check_invariants w with
  | Ok () -> true
  | Error msg ->
    Printf.eprintf "invariant failure: %s\n" msg;
    false

let test_create_uniform () =
  let w = Weights_ref.uniform ~n:2 ~nc:3 ~nt:4 in
  check_float "uniform entry" (1.0 /. 12.0) (Weights.get w 0 1 2);
  check_float "cluster marginal" (1.0 /. 3.0) (Weights.cluster_weight w 0 0);
  check_float "time marginal" (1.0 /. 4.0) (Weights_ref.time_weight w 1 3);
  check_bool "invariants" true (ok_invariants w)

let test_set_updates_marginals () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:2 in
  Weights.set w 0 1 0 0.5;
  check_float "cluster sum" 0.75 (Weights.cluster_weight w 0 1);
  check_float "time sum" 0.75 (Weights_ref.time_weight w 0 0)

let test_set_rejects_negative () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:2 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Weights.set: weight must be finite and >= 0") (fun () ->
      Weights.set w 0 0 0 (-0.1))

let test_index_bounds () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:2 in
  Alcotest.check_raises "oob" (Invalid_argument "Weights: index out of range") (fun () ->
      ignore (Weights.get w 0 2 0))

let test_scale_cluster () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:3 in
  Weights.scale_cluster w 0 1 2.0;
  Weights_ref.gate w;
  check_bool "cluster 1 preferred" true (Weights.preferred_cluster w 0 = 1);
  check_bool "invariants" true (ok_invariants w)

let test_scale_time () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:3 in
  Weights.scale_time w 0 2 3.0;
  Weights_ref.gate w;
  check_int "slot 2 preferred" 2 (Weights.preferred_time w 0)

let test_normalize_restores_sum () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:2 in
  Weights.scale w 0 0 0 7.0;
  Weights_ref.gate w;
  check_bool "invariants" true (ok_invariants w);
  check_float "total 1" 1.0 (Weights.row_total w 0)

let test_normalize_zero_row_resets_uniform () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:2 in
  for c = 0 to 1 do
    for t = 0 to 1 do
      Weights.set w 0 c t 0.0
    done
  done;
  Weights_ref.gate w;
  check_float "uniform again" 0.25 (Weights.get w 0 1 1);
  check_bool "invariants" true (ok_invariants w)

let test_preferred_tie_break () =
  let w = Weights_ref.uniform ~n:1 ~nc:3 ~nt:1 in
  check_int "smallest cluster on tie" 0 (Weights.preferred_cluster w 0);
  check_int "smallest slot on tie" 0 (Weights.preferred_time w 0)

(* The runner-up is the best cluster other than the preferred one,
   whatever its id: [confidence] divides by its marginal. *)
let test_runnerup () =
  let w = Weights_ref.uniform ~n:1 ~nc:3 ~nt:1 in
  Weights.set w 0 0 0 0.2;
  Weights.set w 0 1 0 0.5;
  Weights.set w 0 2 0 0.3;
  check_float "top over runner-up 2" (0.5 /. 0.3) (Weights.confidence w 0);
  let single = Weights_ref.uniform ~n:1 ~nc:1 ~nt:2 in
  check_float "no runner-up" Weights.confidence_sentinel (Weights.confidence single 0)

let test_confidence () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:1 in
  Weights.set w 0 0 0 0.8;
  Weights.set w 0 1 0 0.2;
  check_float "ratio 4" 4.0 (Weights.confidence w 0);
  Weights.set w 0 1 0 0.0;
  check_float "sentinel when runner-up zero" Weights.confidence_sentinel
    (Weights.confidence w 0)

(* Regression for the old behavior where a zero runner-up returned
   [infinity] and poisoned telemetry means downstream. *)
let test_confidence_sentinel () =
  check_bool "sentinel is finite" true (Float.is_finite Weights.confidence_sentinel);
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:1 in
  Weights.set w 0 1 0 0.0;
  check_bool "always finite" true (Float.is_finite (Weights.confidence w 0));
  (* Single-cluster machines have no runner-up at all. *)
  let solo = Weights_ref.uniform ~n:1 ~nc:1 ~nt:3 in
  check_float "no runner-up" Weights.confidence_sentinel (Weights.confidence solo 0);
  (* A huge-but-finite ratio is clamped to the sentinel, so the sentinel
     is a true upper bound, not just a replacement for inf. *)
  let skew = Weights_ref.uniform ~n:1 ~nc:2 ~nt:1 in
  Weights.set skew 0 0 0 1.0;
  Weights.set skew 0 1 0 1e-12;
  check_float "clamped" Weights.confidence_sentinel (Weights.confidence skew 0);
  (* And telemetry aggregation over such rows stays finite. *)
  check_bool "mean confidence finite" true
    (Float.is_finite (Telemetry.mean_confidence w))

let test_blend () =
  let w = Weights_ref.uniform ~n:2 ~nc:2 ~nt:1 in
  Weights.set w 0 0 0 1.0;
  Weights.set w 0 1 0 0.0;
  Weights.set w 1 0 0 0.0;
  Weights.set w 1 1 0 1.0;
  Weights.blend w ~dst:1 ~src:0 ~keep:0.25;
  check_float "blended" 0.75 (Weights.get w 1 0 0);
  check_float "blended other" 0.25 (Weights.get w 1 1 0);
  check_bool "src untouched" true (Weights.get w 0 0 0 = 1.0)

let test_blend_self_noop () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:1 in
  Weights.blend w ~dst:0 ~src:0 ~keep:0.5;
  check_float "unchanged" 0.5 (Weights.get w 0 0 0)

let test_blend_self_noop_clean () =
  let w = Weights_ref.uniform ~n:2 ~nc:3 ~nt:2 in
  Weights.scale_cluster w 0 1 3.0;
  Weights_ref.gate w;
  Weights_ref.clear_touched w;
  let before = Weights.copy w in
  Weights.blend w ~dst:0 ~src:0 ~keep:0.5;
  check_bool "row clean" false (Weights.is_touched w 0);
  check_int "nothing touched" 0 (Weights_ref.touched_count w);
  for c = 0 to 2 do
    for t = 0 to 1 do
      check_bool "entry bits" true (Weights.get w 0 c t = Weights.get before 0 c t)
    done
  done

(* NaN fails every comparison, so a [keep < 0 || keep > 1] guard would
   let it through and write NaN into the row. *)
let test_blend_rejects_bad_keep () =
  let w = Weights_ref.uniform ~n:2 ~nc:2 ~nt:1 in
  List.iter
    (fun keep ->
      Alcotest.check_raises (Printf.sprintf "keep %g" keep)
        (Invalid_argument "Weights.blend: keep must be in [0,1]") (fun () ->
          Weights.blend w ~dst:0 ~src:1 ~keep))
    [ 1.5; -0.5; Float.nan; Float.neg_infinity ];
  check_int "nothing written" 0 (Weights_ref.touched_count w)

let test_copy_is_deep () =
  let w = Weights_ref.uniform ~n:1 ~nc:2 ~nt:1 in
  let c = Weights.copy w in
  Weights.set w 0 0 0 0.9;
  check_float "copy unchanged" 0.5 (Weights.get c 0 0 0)

let test_validate_gate () =
  let w = Weights_ref.uniform ~n:2 ~nc:2 ~nt:2 in
  check_bool "fresh matrix sane" true (ok_invariants w);
  (* An un-normalized row is exactly what a misbehaving pass leaves. *)
  Weights.set w 0 0 0 5.0;
  check_bool "row sum off" true (Result.is_error (Weights.Inspect.check_invariants w));
  check_bool "the gate repairs" true (Weights.normalize_validate_touched w = Ok ());
  check_bool "and leaves it sane" true (ok_invariants w);
  (* Non-finite weights cannot enter through the writers; the gate's
     finiteness arm is defense in depth behind this check ("gate
     verdict at the edges" plants them with [Inspect.set_unchecked]). *)
  Alcotest.check_raises "set rejects nan"
    (Invalid_argument "Weights.set: weight must be finite and >= 0") (fun () ->
      Weights.set w 1 0 0 Float.nan)

let test_preferred_clusters_snapshot () =
  let w = Weights_ref.uniform ~n:3 ~nc:2 ~nt:1 in
  Weights.set w 1 1 0 0.9;
  Alcotest.(check (array int)) "snapshot" [| 0; 1; 0 |]
    (Array.init 3 (Weights.preferred_cluster w))

(* --- Dirty-row tracking ------------------------------------------- *)

let test_fresh_matrix_untouched () =
  let w = Weights_ref.uniform ~n:5 ~nc:2 ~nt:2 in
  check_int "nothing touched" 0 (Weights_ref.touched_count w);
  check_bool "row 0 clean" false (Weights.is_touched w 0)

let test_touched_marks_exactly_written_rows () =
  let w = Weights_ref.uniform ~n:6 ~nc:2 ~nt:2 in
  Weights.set w 1 0 0 0.9;
  Weights.set w 4 1 1 0.9;
  Weights.set w 1 0 1 0.1;
  (* second write to row 1 *)
  check_int "two rows dirty" 2 (Weights_ref.touched_count w);
  Alcotest.(check (list int)) "ascending ids" [ 1; 4 ] (Weights_ref.touched_rows w);
  check_bool "row 0 clean" false (Weights.is_touched w 0);
  check_bool "row 1 dirty" true (Weights.is_touched w 1);
  Weights_ref.clear_touched w;
  check_int "cleared" 0 (Weights_ref.touched_count w);
  Alcotest.(check (list int)) "empty" [] (Weights_ref.touched_rows w)

let test_noop_writes_do_not_dirty () =
  let w = Weights_ref.uniform ~n:3 ~nc:2 ~nt:2 in
  (* Writing the value already there, scaling by 1.0 and adding 0.0 are
     all no-ops and must not dirty the row — this is what lets FEASIBLE
     / LOAD leave the touched set empty on healthy machines. *)
  Weights.set w 0 0 0 (Weights.get w 0 0 0);
  Weights.scale w 1 0 0 1.0;
  Weights.scale_cluster w 1 1 1.0;
  Weights.scale_clusters w 2 [| 1.0; 1.0 |];
  Weights_ref.add w 2 1 1 0.0;
  Weights.add_noise w 2 (Cs_util.Rng.create 7) 0.0;
  check_int "no dirty rows" 0 (Weights_ref.touched_count w)

let test_normalize_touched_only_touched () =
  let w = Weights_ref.uniform ~n:3 ~nc:2 ~nt:2 in
  Weights.scale w 1 0 0 3.0;
  check_bool "gate passes" true (Weights.normalize_validate_touched w = Ok ());
  check_float "touched row renormalized" 1.0 (Weights.row_total w 1);
  check_bool "invariants" true (ok_invariants w)

let test_rollback_restores_exact_rows () =
  let w = Weights_ref.uniform ~n:4 ~nc:2 ~nt:2 in
  Weights.scale_cluster w 0 1 4.0;
  Weights.scale_cluster w 2 0 7.0;
  Weights_ref.gate w;
  let snapshot = Weights.copy w in
  Weights.begin_pass w;
  Weights.scale_cluster w 1 0 9.0;
  Weights.scale_cluster w 3 1 5.0;
  ignore (Weights.normalize_validate_touched w);
  Alcotest.(check (list int)) "pass wrote rows 1,3" [ 1; 3 ] (Weights_ref.touched_rows w);
  (* Rollback: the rows the pass wrote come back as they were. *)
  Weights.rollback w;
  for i = 0 to 3 do
    for c = 0 to 1 do
      for t = 0 to 1 do
        check_bool "entry bit-identical" true
          (Weights.get w i c t = Weights.get snapshot i c t)
      done;
      check_bool "marginal bit-identical" true
        (Weights.cluster_weight w i c = Weights.cluster_weight snapshot i c)
    done
  done;
  Alcotest.(check (list int)) "touched flags kept" [ 1; 3 ] (Weights_ref.touched_rows w);
  check_bool "caches consistent" true (ok_invariants w);
  (* A write with no pass open is not logged: rollback keeps it. *)
  Weights.scale_cluster w 0 0 3.0;
  Weights.rollback w;
  check_bool "unlogged write kept" true (Weights.get w 0 0 0 <> Weights.get snapshot 0 0 0)

(* Each open pass has a log of its own, even with two open at once in
   one domain (the log's buffers are lent out per pass). *)
let test_two_open_passes () =
  let a = Weights_ref.uniform ~n:3 ~nc:2 ~nt:4 and b = Weights_ref.uniform ~n:3 ~nc:2 ~nt:4 in
  Weights.scale_cluster b 1 0 3.0;
  Weights_ref.gate b;
  let a0 = Weights.copy a and b0 = Weights.copy b in
  Weights.begin_pass a;
  Weights.scale_cluster a 0 1 5.0;
  Weights.begin_pass b;
  Weights.scale_cluster b 2 1 7.0;
  Weights.scale_cluster a 2 0 9.0;
  Weights.rollback b;
  Weights.scale_cluster a 1 1 4.0;
  Weights.rollback a;
  for i = 0 to 2 do
    for c = 0 to 1 do
      for t = 0 to 3 do
        check_bool "a restored" true (Weights.get a i c t = Weights.get a0 i c t);
        check_bool "b restored" true (Weights.get b i c t = Weights.get b0 i c t)
      done
    done
  done

(* Rows too long for one chunk of the log, and more saves than one
   chunk holds, restore like any other. *)
let test_rollback_long_rows () =
  List.iter
    (fun (n, nt) ->
      let w = Weights_ref.uniform ~n ~nc:4 ~nt in
      for i = 0 to n - 1 do
        Weights.scale_cluster w i (i mod 4) (1.0 +. float_of_int i)
      done;
      Weights_ref.gate w;
      let before = Weights.copy w in
      Weights.begin_pass w;
      for i = 0 to n - 1 do
        Weights.scale_clusters w i [| 2.0; 3.0; 0.5; 4.0 |];
        Weights.blend w ~dst:i ~src:((i + 1) mod n) ~keep:0.25
      done;
      Weights.rollback w;
      for i = 0 to n - 1 do
        for c = 0 to 3 do
          for t = 0 to nt - 1 do
            if Weights.get w i c t <> Weights.get before i c t then
              Alcotest.failf "n=%d nt=%d: entry (%d,%d,%d) not restored" n nt i c t
          done
        done
      done;
      check_bool "caches consistent" true (ok_invariants w))
    [ (3, 6000); (200, 100) ]

(* --- Property suites ------------------------------------------------ *)

(* One generated op per kernel in the public API (and [Add], spelled
   through [get] and [set]); every produced value stays finite and
   non-negative so the sequence is always legal. [Gate] normalizes the
   rows written so far. *)
type op =
  | Set of int * int * int * float
  | Add of int * int * int * float
  | Scale of int * int * int * float
  | Scale_cluster of int * int * float
  | Scale_time of int * int * float
  | Scale_clusters of int * float array
  | Noise of int * float * int
  | Mask of int * int * int
  | Blend of int * int * float
  | Gate

let pn = 4
let pnc = 3
let pnt = 5

let op_gen =
  QCheck.Gen.(
    let i = int_bound (pn - 1) and c = int_bound (pnc - 1) and t = int_bound (pnt - 1) in
    let v = float_bound_inclusive 5.0 in
    frequency
      [
        (3, map (fun (i, c, t, v) -> Set (i, c, t, v)) (tup4 i c t v));
        (3, map (fun (i, c, t, v) -> Add (i, c, t, v)) (tup4 i c t v));
        (3, map (fun (i, c, t, v) -> Scale (i, c, t, v)) (tup4 i c t v));
        (2, map (fun (i, c, v) -> Scale_cluster (i, c, v)) (tup3 i c v));
        (2, map (fun (i, t, v) -> Scale_time (i, t, v)) (tup3 i t v));
        ( 2,
          map
            (fun (i, fs) -> Scale_clusters (i, Array.of_list fs))
            (tup2 i (list_repeat pnc v)) );
        (2, map (fun (i, f, seed) -> Noise (i, f, seed)) (tup3 i v nat));
        (* Masks narrow the rows' live windows; bounds may fall outside
           [0, nt). *)
        ( 2,
          map
            (fun (i, lo, hi) -> Mask (i, lo - 1, hi - 1))
            (tup3 i (int_bound (pnt + 1)) (int_bound (pnt + 1))) );
        ( 2,
          map (fun (d, s, k) -> Blend (d, s, k)) (tup3 i i (float_bound_inclusive 1.0))
        );
        (2, return Gate);
      ])

let ops_gen = QCheck.Gen.(list_size (int_bound 60) op_gen)

let apply_op w = function
  | Set (i, c, t, v) -> Weights.set w i c t v
  | Add (i, c, t, v) -> Weights_ref.add w i c t v
  | Scale (i, c, t, v) -> Weights.scale w i c t v
  | Scale_cluster (i, c, v) -> Weights.scale_cluster w i c v
  | Scale_time (i, t, v) -> Weights.scale_time w i t v
  | Scale_clusters (i, fs) -> Weights.scale_clusters w i fs
  | Noise (i, f, seed) -> Weights.add_noise w i (Cs_util.Rng.create seed) f
  | Mask (i, lo, hi) -> Weights.mask_time_window w i ~lo ~hi
  | Blend (d, s, k) -> Weights.blend w ~dst:d ~src:s ~keep:k
  | Gate -> ignore (Weights.normalize_validate_touched w)

let run_ops ops =
  let w = Weights_ref.uniform ~n:pn ~nc:pnc ~nt:pnt in
  List.iter (apply_op w) ops;
  w

(* ISSUE invariants, checked directly (not only via check_invariants):
   rows sum to 1 within 1e-9, entries in [0,1], and each cached
   marginal equals its freshly recomputed sum. *)
let holds_invariants w =
  let ok = ref true in
  for i = 0 to pn - 1 do
    let row_sum = ref 0.0 in
    for c = 0 to pnc - 1 do
      let csum = ref 0.0 in
      for t = 0 to pnt - 1 do
        let v = Weights.get w i c t in
        if not (v >= 0.0 && v <= 1.0 +. 1e-9) then ok := false;
        csum := !csum +. v;
        row_sum := !row_sum +. v
      done;
      if Float.abs (!csum -. Weights.cluster_weight w i c) > 1e-9 then ok := false
    done;
    if Float.abs (!row_sum -. 1.0) > 1e-9 then ok := false;
    if Float.abs (!row_sum -. Weights.row_total w i) > 1e-9 then ok := false
  done;
  !ok && ok_invariants w

let test_ops_invariants_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"op sequences keep invariants" (QCheck.make ops_gen)
      (fun ops ->
        let w = run_ops ops in
        Weights.normalize_validate_touched w = Ok () && holds_invariants w)
  in
  to_alcotest prop

(* Everything observable about a matrix, for comparison with [=] (no
   epsilon anywhere). *)
let state w =
  List.init pn (fun i ->
      ( Array.init pnc (fun c -> Array.init pnt (Weights.get w i c)),
        Array.init pnc (Weights.cluster_weight w i),
        Weights.row_total w i,
        Weights.is_touched w i ))

(* A fused row kernel, applied either directly or as its per-element
   spelling through the public [get]/[set]/[scale]. *)
type kernel =
  | K_scale_cluster of int * int * float
  | K_scale_time of int * int * float
  | K_scale_clusters of int * float array
  | K_noise of int * float * int
  | K_mask_time_window of int * int * int

let kernel_gen =
  QCheck.Gen.(
    let i = int_bound (pn - 1) and c = int_bound (pnc - 1) and t = int_bound (pnt - 1) in
    (* 1.0 (a no-op) and 0.0 (zeroing) are the edge cases for the
       caches and the touched flag. *)
    let v = frequency [ (4, float_bound_inclusive 5.0); (1, return 1.0); (1, return 0.0) ] in
    oneof
      [
        map (fun (i, c, v) -> K_scale_cluster (i, c, v)) (tup3 i c v);
        map (fun (i, t, v) -> K_scale_time (i, t, v)) (tup3 i t v);
        map (fun (i, fs) -> K_scale_clusters (i, Array.of_list fs)) (tup2 i (list_repeat pnc v));
        map (fun (i, f, seed) -> K_noise (i, f, seed)) (tup3 i v nat);
        (* Window bounds may fall outside [0, nt). *)
        map
          (fun (i, lo, hi) -> K_mask_time_window (i, lo - 1, hi - 1))
          (tup3 i (int_bound (pnt + 1)) (int_bound (pnt + 1)));
      ])

let fused w = function
  | K_scale_cluster (i, c, f) -> Weights.scale_cluster w i c f
  | K_scale_time (i, t, f) -> Weights.scale_time w i t f
  | K_scale_clusters (i, fs) -> Weights.scale_clusters w i fs
  | K_noise (i, f, seed) -> Weights.add_noise w i (Cs_util.Rng.create seed) f
  | K_mask_time_window (i, lo, hi) -> Weights.mask_time_window w i ~lo ~hi

let per_element w = function
  | K_scale_cluster (i, c, f) -> Weights_ref.scale_cluster w i c f
  | K_scale_time (i, t, f) -> Weights_ref.scale_time w i t f
  | K_scale_clusters (i, fs) -> Weights_ref.scale_clusters w i fs
  | K_noise (i, f, seed) -> Weights_ref.add_noise w i (Cs_util.Rng.create seed) f
  | K_mask_time_window (i, lo, hi) ->
    for c = 0 to pnc - 1 do
      for t = 0 to pnt - 1 do
        if t < lo || t > hi then Weights.set w i c t 0.0
      done
    done

(* The fused kernels' bit-identity contract: from any reachable state
   (touched flags kept or cleared), each leaves entries, both marginal
   caches and the touched flags exactly as its per-element spelling
   does. *)
let test_kernels_per_element_qcheck =
  let prop =
    QCheck.Test.make ~count:500 ~name:"kernels = per-element spelling"
      (QCheck.make QCheck.Gen.(tup3 ops_gen bool kernel_gen))
      (fun (ops, clear, k) ->
        let w = run_ops ops in
        if clear then Weights_ref.clear_touched w;
        let spelled = Weights.copy w in
        fused w k;
        per_element spelled k;
        state w = state spelled)
  in
  to_alcotest prop

(* Marginals rebuilt from a row's entries: lane sums left to right, the
   row total as the sum of lane sums. [blend] and the gate rebuild their
   row's caches in this order, so they must equal it with [=]. *)
let rebuilt_marginals e =
  let lanes = Array.map (Array.fold_left ( +. ) 0.0) e in
  (lanes, Array.fold_left ( +. ) 0.0 lanes)

let cached_marginals w i = (Array.init pnc (Weights.cluster_weight w i), Weights.row_total w i)

let entries w i = Array.init pnc (fun c -> Array.init pnt (Weights.get w i c))

(* Rows other than [i] are left exactly as they were. *)
let others_unchanged ~before w i =
  List.for_all2
    (fun (r, a) b -> r = i || a = b)
    (List.mapi (fun r s -> (r, s)) (state before))
    (state w)

let test_blend_pointwise_qcheck =
  let gen =
    QCheck.Gen.(
      (* [src] is drawn as an offset so it never equals [dst]: blending a
         row into itself is a no-op (see "blend self noop clean"). *)
      map
        (fun (ops, dst, off, keep) -> (ops, dst, (dst + 1 + off) mod pn, keep))
        (tup4 ops_gen (int_bound (pn - 1)) (int_bound (pn - 2))
           (frequency [ (1, oneofl [ 0.0; 0.5; 1.0 ]); (2, float_bound_inclusive 1.0) ])))
  in
  let prop =
    QCheck.Test.make ~count:300 ~name:"blend = pointwise formula" (QCheck.make gen)
      (fun (ops, dst, src, keep) ->
        let w = run_ops ops in
        Weights_ref.clear_touched w;
        let before = Weights.copy w in
        let d = entries w dst and s = entries w src in
        Weights.blend w ~dst ~src ~keep;
        entries w dst
        = Array.map2 (Array.map2 (fun d s -> (keep *. d) +. ((1.0 -. keep) *. s))) d s
        && cached_marginals w dst = rebuilt_marginals (entries w dst)
        && Weights_ref.touched_rows w = [ dst ]
        && others_unchanged ~before w dst)
  in
  to_alcotest prop

(* A row as the gate leaves it, by the pointwise formula: every entry
   divided by the row's flat-order total, or [1 / (nc * nt)] everywhere
   when that total is zero. *)
let normalized old =
  let total = Array.fold_left (Array.fold_left ( +. )) 0.0 old in
  if total <= 0.0 || not (Float.is_finite total) then
    Array.map (Array.map (fun _ -> 1.0 /. float_of_int (pnc * pnt))) old
  else Array.map (Array.map (fun v -> v /. total)) old

(* [blend] hands the gate no total, and withdraws the one a sweeping
   writer handed over. Row 0 holds 1.0 and, in one other lane, two
   entries of 2^-53, and row 1 is all zeros, so a blend with
   [keep = 0.5] halves row 0 exactly. The halved row's flat-order total
   is 0.5 (each 2^-54 is half an ulp and rounds away), and its
   lane-order total, the one [blend] rebuilds the cache with, is
   0.5 + 2^-53. With [handed], [scale_clusters] first doubles the row
   and hands over a flat total of 2.0 (so the blend leaves the
   doubled values halved, 1.0 and 2^-53). Had the blend kept the
   handed total, or handed over its lane-order one, the gate would
   divide by a float other than the flat total of the blended row. *)
let test_blend_withdraws_total () =
  List.iter
    (fun handed ->
      let w = Weights_ref.uniform ~n:2 ~nc:3 ~nt:2 in
      for i = 0 to 1 do
        for c = 0 to 2 do
          for t = 0 to 1 do
            Weights.set w i c t 0.0
          done
        done
      done;
      Weights.set w 0 0 0 1.0;
      Weights.set w 0 1 0 0x1p-53;
      Weights.set w 0 1 1 0x1p-53;
      if handed then Weights.scale_clusters w 0 [| 2.0; 2.0; 2.0 |];
      let row () = Array.init 3 (fun c -> Array.init 2 (Weights.get w 0 c)) in
      let before = row () in
      Weights.blend w ~dst:0 ~src:1 ~keep:0.5;
      let blended = row () in
      check_bool "the blend halves the row" true
        (blended = Array.map (Array.map (fun v -> v /. 2.0)) before);
      let flat = Array.fold_left (Array.fold_left ( +. )) 0.0 blended in
      check_bool "lane-order total differs from flat" true (Weights.row_total w 0 <> flat);
      Weights_ref.gate w;
      for c = 0 to 2 do
        for t = 0 to 1 do
          if Int64.bits_of_float (Weights.get w 0 c t)
             <> Int64.bits_of_float (blended.(c).(t) /. flat)
          then Alcotest.failf "entry (%d,%d) not divided by the flat total" c t
        done
      done)
    [ false; true ]

(* After up to four blends into one row, with or without a total
   handed over before them, the gate divides the row by its flat-order
   total, so it equals the pointwise formula bit for bit. *)
let test_blends_then_gate_qcheck =
  let gen =
    QCheck.Gen.(
      tup4 ops_gen (int_bound (pn - 1)) bool
        (list_size (int_range 1 4)
           (pair (int_bound (pn - 2))
              (frequency [ (1, oneofl [ 0.0; 0.5; 1.0 ]); (3, float_bound_inclusive 1.0) ]))))
  in
  let prop =
    QCheck.Test.make ~count:300 ~name:"blends then gate = flat-total normalization"
      (QCheck.make gen)
      (fun (ops, dst, handed, blends) ->
        let w = run_ops ops in
        Weights_ref.gate w;
        Weights_ref.clear_touched w;
        if handed then Weights.scale_clusters w dst [| 1.5; 0.5; 2.0 |];
        List.iter
          (fun (off, keep) -> Weights.blend w ~dst ~src:((dst + 1 + off) mod pn) ~keep)
          blends;
        let want = normalized (entries w dst) in
        Weights_ref.gate w;
        let bits = Array.map (Array.map Int64.bits_of_float) in
        bits (entries w dst) = bits want
        && cached_marginals w dst = rebuilt_marginals want)
  in
  to_alcotest prop

(* The gate normalizes each touched row by the pointwise formula and
   rebuilds its caches from the result; untouched rows keep their
   bits, and the touched flags stay as they were. *)
let test_normalize_pointwise_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"normalize = pointwise formula"
      (QCheck.make QCheck.Gen.(tup4 ops_gen (int_bound (pn - 1)) bool bool))
      (fun (ops, i, zero, clear) ->
        let w = run_ops ops in
        if clear then Weights_ref.clear_touched w;
        (* A zeroed row must come back uniform. *)
        if zero then Weights.mask_time_window w i ~lo:1 ~hi:0;
        let before = Weights.copy w in
        ignore (Weights.normalize_validate_touched w);
        List.for_all2
          (fun r (e, _, _, touched) ->
            if touched then
              entries w r = normalized e
              && cached_marginals w r = rebuilt_marginals (entries w r)
              && Weights.is_touched w r
            else List.nth (state w) r = List.nth (state before) r)
          (List.init pn Fun.id) (state before))
  in
  to_alcotest prop

(* The gate's row check on one row's entries, spelled out: the first
   entry that is not finite or lies below -1e-9, else a sum off 1 by
   more than 1e-6. *)
let validate_row r e =
  let total = ref 0.0 and err = ref None in
  Array.iter
    (Array.iter (fun v ->
         if !err = None then
           if Float.is_finite v && v >= -1e-9 then total := !total +. v
           else if not (Float.is_finite v) then
             err := Some (Printf.sprintf "row %d has non-finite weight %g" r v)
           else err := Some (Printf.sprintf "row %d has negative weight %g" r v)))
    e;
  if !err = None && Float.abs (!total -. 1.0) > 1e-6 then
    err := Some (Printf.sprintf "row %d sums to %g, expected 1" r !total);
  !err

(* Rows at the edges of the gate's verdict, as [pnc] lanes of [pnt]
   entries. No writer stores a negative, NaN or infinite value, so
   these are planted with [Weights.Inspect.set_unchecked]:
   - two entries [x * s] and [(1 - x) * s], for [x] at -1e-9 and the
     floats on either side of it, and [s] a power of two. The flat-order
     total is [s] exactly, so the divide leaves [x] itself, on either
     side of the check's edge;
   - a few special values (NaN, the infinities, [+/-max_float], the
     -1e-9 edge, signed zeros, tiny and subnormal values) among random
     entries: a pair of [max_float] overflows the total, and
     [max_float - max_float + tiny] divides to infinities;
   - all-zero rows, +0.0 or -0.0, which the gate resets to uniform;
   - a top entry in lane 0 with half-ulp values in the other lanes, so
     the flat-order total (which the divide uses) and the lane-order
     one (which the row cache holds, and the verdict reads) round
     differently. *)
let edge_row_gen =
  QCheck.Gen.(
    let slots = pnc * pnt in
    let of_flat cells =
      let e = Array.make_matrix pnc pnt 0.0 in
      List.iter (fun (k, v) -> e.(k / pnt).(k mod pnt) <- v) cells;
      e
    in
    let threshold =
      map
        (fun (a, d, x, s) -> of_flat [ (a, x *. s); ((a + 1 + d) mod slots, (1.0 -. x) *. s) ])
        (quad (int_bound (slots - 1)) (int_bound (slots - 2))
           (oneofl [ -1e-9; Float.pred (-1e-9); Float.succ (-1e-9) ])
           (oneofl [ 1.0; 0.5; 2.0; 0x1p-20 ]))
    in
    let special =
      oneofl
        [ Float.nan; Float.infinity; Float.neg_infinity; max_float; -.max_float; -1e-9;
          Float.pred (-1e-9); 0.0; -0.0; 1e-300; 5e-324; 1.0 ]
    in
    let specials =
      map2
        (fun base cells -> of_flat (List.mapi (fun k v -> (k, v)) base @ cells))
        (list_repeat slots (frequency [ (2, float_bound_inclusive 1.0); (1, return 0.0) ]))
        (list_size (int_range 1 4) (pair (int_bound (slots - 1)) special))
    in
    let zeros = map (fun z -> Array.make_matrix pnc pnt z) (oneofl [ 0.0; -0.0 ]) in
    let lanes =
      map2
        (fun (t, top) cells -> of_flat ((t, top) :: cells))
        (pair (int_bound (pnt - 1)) (oneofl [ 1.0; 0.5; 0.75 ]))
        (list_size (int_range 2 6)
           (pair (int_range pnt (slots - 1)) (oneofl [ 0x1p-53; 0x1p-54; 0x1.8p-53; 1e-16 ])))
    in
    pair (int_bound (pn - 1)) (frequency [ (2, threshold); (3, specials); (1, zeros); (2, lanes) ]))

let plant w (i, e) =
  Array.iteri (fun c lane -> Array.iteri (fun t v -> Weights.Inspect.set_unchecked w i c t v) lane) e

let state_bits st =
  let bits = Int64.bits_of_float in
  List.map
    (fun (e, lanes, total, touched) ->
      (Array.map (Array.map bits) e, Array.map bits lanes, bits total, touched))
    st

(* The fused gate against the two-step protocol it replaced, spelled on
   the matrix's observable state: normalize each touched row by the
   pointwise formula and rebuild its caches, then validate the touched
   rows in ascending order with [validate_row]'s flat-order formula.
   From any reachable state (touched flags accumulated from the start,
   or cleared after a gated prefix so some rows stay untouched), plus
   up to three planted edge rows, the verdict (message included), the
   entries, the marginals and the touched flags must agree bit for
   bit. The gate's fused verdict (the least value and the lane-order
   total) only picks the rows that [validate_row] re-reads, so one that
   rejects too much costs time, not a wrong verdict; one that accepts
   too much shows here. Sweeping an untouched row, or normalizing
   differently, shows as a state mismatch. *)
let test_gate_fused_qcheck =
  let prop =
    QCheck.Test.make ~count:1000 ~name:"fused gate = normalize touched rows, then validate"
      (QCheck.make
         QCheck.Gen.(quad ops_gen bool ops_gen (list_size (int_bound 3) edge_row_gen)))
      (fun (prefix, clear, ops, edges) ->
        let w = run_ops prefix in
        if clear then begin
          ignore (Weights.normalize_validate_touched w);
          Weights_ref.clear_touched w
        end;
        List.iter (apply_op w) ops;
        List.iter (plant w) edges;
        let expected =
          List.map
            (fun ((e, _, _, touched) as row) ->
              if touched then
                let e = normalized e in
                let lanes, total = rebuilt_marginals e in
                (e, lanes, total, true)
              else row)
            (state w)
        in
        let verdict =
          List.fold_left
            (fun verdict (r, (e, _, _, touched)) ->
              match verdict with
              | Error _ -> verdict
              | Ok () -> (
                if not touched then verdict
                else match validate_row r e with None -> verdict | Some m -> Error m))
            (Ok ())
            (List.mapi (fun r row -> (r, row)) expected)
        in
        Weights.normalize_validate_touched w = verdict
        && state_bits (state w) = state_bits expected)
  in
  to_alcotest prop

(* The edge rows above, one at a time, with the verdict each must get:
   the -1e-9 edge passes and the float below it fails; a NaN, an
   infinity or an overflowing pair resets the row to uniform, which
   passes; entries that cancel to a tiny total divide to infinities,
   which fail; and the flat and lane-order totals of the last row
   differ, the gate dividing by the flat one. *)
let test_gate_verdict_edges () =
  let row cells =
    let e = Array.make_matrix pnc pnt 0.0 in
    List.iter (fun (c, t, v) -> e.(c).(t) <- v) cells;
    e
  in
  let gate e =
    let w = Weights_ref.uniform ~n:pn ~nc:pnc ~nt:pnt in
    plant w (1, e);
    let verdict = Weights.normalize_validate_touched w in
    if verdict <> (match validate_row 1 (normalized e) with None -> Ok () | Some m -> Error m)
    then Alcotest.fail "verdict differs from the flat-order row check";
    (verdict, w)
  in
  let expect what want e = Alcotest.(check (result unit string)) what want (fst (gate e)) in
  let edge x = row [ (0, 1, x); (2, 3, 1.0 -. x) ] in
  expect "at -1e-9" (Ok ()) (edge (-1e-9));
  expect "just above -1e-9" (Ok ()) (edge (Float.succ (-1e-9)));
  expect "just below -1e-9"
    (Error (Printf.sprintf "row 1 has negative weight %g" (Float.pred (-1e-9))))
    (edge (Float.pred (-1e-9)));
  List.iter
    (fun (what, x) -> expect what (Ok ()) (row [ (0, 0, 0.5); (1, 2, x) ]))
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ];
  expect "overflowing pair" (Ok ()) (row [ (0, 0, max_float); (2, 4, max_float) ]);
  expect "cancelling pair"
    (Error "row 1 has non-finite weight inf")
    (row [ (0, 0, max_float); (0, 1, -.max_float); (1, 0, 1e-300) ]);
  expect "all +0.0" (Ok ()) (row []);
  expect "all -0.0" (Ok ()) (Array.make_matrix pnc pnt (-0.0));
  let split = row [ (0, 0, 1.0); (1, 0, 0x1p-53); (1, 1, 0x1p-53) ] in
  let _, w = gate split in
  let flat = Array.fold_left (Array.fold_left ( +. )) 0.0 split in
  check_bool "the flat total is 1" true (flat = 1.0);
  check_bool "the lane-order total is not" true (Weights.row_total w 1 = 1.0 +. 0x1p-52);
  let bits = Array.map (Array.map Int64.bits_of_float) in
  check_bool "the entries divide by the flat total" true (bits (entries w 1) = bits split)

let test_ops_dirty_exact_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"touched set = exactly the written rows"
      (QCheck.make ops_gen)
      (fun ops ->
        let w = Weights_ref.uniform ~n:pn ~nc:pnc ~nt:pnt in
        let before = Weights.copy w in
        List.iter (apply_op w) ops;
        (* Every changed row must be flagged: an unflagged row must hold
           exactly its original bits (flagged-but-unchanged is fine — a
           write can overwrite a value with itself, e.g. add x then
           subtract nothing; the flag records intent-to-write that
           changed the row at some point). *)
        let ok = ref true in
        for i = 0 to pn - 1 do
          if not (Weights.is_touched w i) then
            for c = 0 to pnc - 1 do
              for t = 0 to pnt - 1 do
                if Weights.get w i c t <> Weights.get before i c t then ok := false
              done
            done
        done;
        !ok)
  in
  to_alcotest prop

(* --- Live windows ---------------------------------------------------- *)

(* The full-row kernels as they were before rows carried live windows,
   on a plain-array model of the matrix: every kernel below sweeps
   whole rows. [scale_cluster], [scale_clusters], [normalize_row] (so
   the fused gate) and [blend] are the ones the library now sweeps over
   the window only; the others are the library's unwindowed kernels,
   copied so the model is self-contained. The one deliberate difference
   from the old code is [mask], which stores 0.0 unconditionally, as
   [set] would. *)
module Full = struct
  type t = {
    e : float array;
    cs : float array;
    rt : float array;
    dirty : bool array;
  }

  let n = 4
  let nc = 3
  let nt = 8

  let create () =
    let v = 1.0 /. float_of_int (nc * nt) in
    {
      e = Array.make (n * nc * nt) v;
      cs = Array.make (n * nc) (v *. float_of_int nt);
      rt = Array.make n (v *. float_of_int (nc * nt));
      dirty = Array.make n false;
    }

  let copy m =
    {
      e = Array.copy m.e;
      cs = Array.copy m.cs;
      rt = Array.copy m.rt;
      dirty = Array.copy m.dirty;
    }

  let k i c tt = (((i * nc) + c) * nt) + tt

  let bad v = (not (Float.is_finite v)) || v < 0.0
  let reject () = invalid_arg "Weights.set: weight must be finite and >= 0"

  let apply_delta m i c delta =
    if delta <> 0.0 then begin
      m.cs.((i * nc) + c) <- m.cs.((i * nc) + c) +. delta;
      m.rt.(i) <- m.rt.(i) +. delta;
      m.dirty.(i) <- true
    end

  let set m i c tt v =
    if bad v then reject ();
    let old = m.e.(k i c tt) in
    m.e.(k i c tt) <- v;
    apply_delta m i c (v -. old)

  (* A kernel's write: reject a bad value, store only a changed one. *)
  let write m i c tt v =
    if bad v then reject ();
    let old = m.e.(k i c tt) in
    if v -. old <> 0.0 then begin
      m.e.(k i c tt) <- v;
      apply_delta m i c (v -. old)
    end

  let scale_cluster m i c f =
    for tt = 0 to nt - 1 do
      write m i c tt (m.e.(k i c tt) *. f)
    done

  let scale_clusters m i fs =
    for c = 0 to nc - 1 do
      scale_cluster m i c fs.(c)
    done

  let scale_time m i tt f =
    for c = 0 to nc - 1 do
      write m i c tt (m.e.(k i c tt) *. f)
    done

  (* NOISE as a full-row sweep: every slot is visited and rewritten,
     and only positive ones draw. *)
  let noise m i rng bound =
    for c = 0 to nc - 1 do
      for tt = 0 to nt - 1 do
        let v = m.e.(k i c tt) in
        write m i c tt (if v > 0.0 then v +. Cs_util.Rng.float rng bound else v)
      done
    done

  let mask m i ~lo ~hi =
    for c = 0 to nc - 1 do
      let zero tt =
        let old = m.e.(k i c tt) in
        m.e.(k i c tt) <- 0.0;
        apply_delta m i c (0.0 -. old)
      in
      for tt = 0 to min lo nt - 1 do
        zero tt
      done;
      for tt = max (hi + 1) 0 to nt - 1 do
        zero tt
      done
    done

  let normalize_row m i =
    let len = nc * nt in
    let total = ref 0.0 in
    for j = i * len to ((i + 1) * len) - 1 do
      total := !total +. m.e.(j)
    done;
    let total = !total in
    let uniform = total <= 0.0 || not (Float.is_finite total) in
    let u = 1.0 /. float_of_int len in
    let changed = ref false and row = ref 0.0 in
    let vsum = ref 0.0 and all_ok = ref true in
    for c = 0 to nc - 1 do
      let s = ref 0.0 in
      for tt = 0 to nt - 1 do
        let old = m.e.(k i c tt) in
        let v = if uniform then u else old /. total in
        let stored =
          if v <> old then begin
            changed := true;
            m.e.(k i c tt) <- v;
            v
          end
          else old
        in
        if stored >= -1e-9 && stored <= max_float then vsum := !vsum +. stored
        else all_ok := false;
        s := !s +. v
      done;
      m.cs.((i * nc) + c) <- !s;
      row := !row +. !s
    done;
    m.rt.(i) <- !row;
    if !changed then m.dirty.(i) <- true;
    !all_ok && Float.abs (!vsum -. 1.0) <= 1e-6

  let validate_row m i =
    let total = ref 0.0 and err = ref None in
    (try
       for j = i * nc * nt to ((i + 1) * nc * nt) - 1 do
         let v = m.e.(j) in
         if Float.is_finite v && v >= -1e-9 then total := !total +. v
         else begin
           err :=
             Some
               (if not (Float.is_finite v) then
                  Printf.sprintf "row %d has non-finite weight %g" i v
                else Printf.sprintf "row %d has negative weight %g" i v);
           raise Exit
         end
       done;
       if Float.abs (!total -. 1.0) > 1e-6 then
         err := Some (Printf.sprintf "row %d sums to %g, expected 1" i !total)
     with Exit -> ());
    !err

  let normalize_validate_touched m =
    let err = ref None in
    for i = 0 to n - 1 do
      if m.dirty.(i) && (not (normalize_row m i)) && !err = None then err := validate_row m i
    done;
    match !err with None -> Ok () | Some e -> Error e

  let blend m ~dst ~src ~keep =
    if not (keep >= 0.0 && keep <= 1.0) then invalid_arg "Weights.blend: keep must be in [0,1]";
    if dst <> src then begin
      let drop = 1.0 -. keep in
      let row = ref 0.0 in
      for c = 0 to nc - 1 do
        let s = ref 0.0 in
        for tt = 0 to nt - 1 do
          let v = (keep *. m.e.(k dst c tt)) +. (drop *. m.e.(k src c tt)) in
          m.e.(k dst c tt) <- v;
          s := !s +. v
        done;
        m.cs.((dst * nc) + c) <- !s;
        row := !row +. !s
      done;
      m.rt.(dst) <- !row;
      m.dirty.(dst) <- true
    end

  (* Snapshot rollback: the whole matrix as it was when the pass
     opened, the touched flags as the pass left them. *)
  let restore ~snap m =
    Array.blit snap.e 0 m.e 0 (Array.length m.e);
    Array.blit snap.cs 0 m.cs 0 (Array.length m.cs);
    Array.blit snap.rt 0 m.rt 0 (Array.length m.rt)
end

(* One step of the window property, run on the library and the model.
   [W_begin], [W_commit] and [W_rollback] are the driver's pass
   protocol: the library's undo log against a snapshot of the whole
   model taken when the pass opens. [W_clear] is an empty pass, which
   clears the touched flags. *)
type wop =
  | W_set of int * int * int * float
  | W_scale_cluster of int * int * float
  | W_scale_time of int * int * float
  | W_scale_clusters of int * float array
  | W_noise of int * float * int
  | W_mask of int * int * int
  | W_blend of int * int * float
  | W_gate
  | W_clear
  | W_begin
  | W_commit
  | W_rollback

let wop_gen =
  QCheck.Gen.(
    let i = int_bound (Full.n - 1)
    and c = int_bound (Full.nc - 1)
    and t = int_bound (Full.nt - 1) in
    (* Zeros force the uniform reset; inf, nan and negative factors
       raise, a non-finite one even on an all-zero lane. *)
    let factor =
      frequency
        [
          (6, float_bound_inclusive 3.0);
          (2, return 0.0);
          (1, return 1.0);
          (1, oneofl [ -1.5; -0.0; 1e308 ]);
          (1, oneofl [ Float.infinity; Float.nan; Float.neg_infinity ]);
        ]
    in
    let value =
      frequency
        [
          (4, float_bound_inclusive 2.0);
          (2, oneofl [ 0.0; -0.0 ]);
          (1, oneofl [ -1.0; Float.nan ]);
        ]
    in
    (* Narrow windows, so rows often end up with disjoint ones, and
       empty ones, which zero the whole row. *)
    let window =
      frequency
        [
          (4, map (fun (lo, w) -> (lo, lo + w)) (pair t (int_bound 2)));
          (1, map (fun lo -> (lo, lo - 1)) t);
          (1, pair (int_range (-2) (Full.nt + 1)) (int_range (-2) (Full.nt + 1)));
        ]
    in
    let keep = frequency [ (6, float_bound_inclusive 1.0); (1, oneofl [ 0.0; 1.0; 1.5 ]) ] in
    frequency
      [
        (3, map (fun (i, c, t, v) -> W_set (i, c, t, v)) (tup4 i c t value));
        (3, map (fun (i, c, f) -> W_scale_cluster (i, c, f)) (tup3 i c factor));
        (1, map (fun (i, t, f) -> W_scale_time (i, t, f)) (tup3 i t factor));
        ( 3,
          map
            (fun (i, fs) -> W_scale_clusters (i, Array.of_list fs))
            (pair i (oneof [ list_repeat Full.nc factor; return [ 0.0; 0.0; 0.0 ] ])) );
        (2, map (fun (i, f, seed) -> W_noise (i, f, seed)) (triple i factor nat));
        (4, map (fun (i, (lo, hi)) -> W_mask (i, lo, hi)) (pair i window));
        (4, map (fun (d, s, k) -> W_blend (d, s, k)) (triple i i keep));
        (2, return W_gate);
        (1, return W_clear);
        (2, return W_begin);
        (1, return W_commit);
        (2, return W_rollback);
      ])

(* Runs [op] on both and tells whether they agree on its outcome:
   [Ok ()], the gate's verdict, or the [Invalid_argument] raised.
   [msnap] is the model's snapshot while a pass is open. *)
let same_outcome w (m, msnap) op =
  let unit f () =
    f ();
    Ok ()
  in
  let lib, model =
    match op with
    | W_set (i, c, t, v) ->
      (unit (fun () -> Weights.set w i c t v), unit (fun () -> Full.set m i c t v))
    | W_scale_cluster (i, c, f) ->
      ( unit (fun () -> Weights.scale_cluster w i c f),
        unit (fun () -> Full.scale_cluster m i c f) )
    | W_scale_time (i, t, f) ->
      (unit (fun () -> Weights.scale_time w i t f), unit (fun () -> Full.scale_time m i t f))
    | W_scale_clusters (i, fs) ->
      ( unit (fun () -> Weights.scale_clusters w i fs),
        unit (fun () -> Full.scale_clusters m i fs) )
    | W_noise (i, f, seed) ->
      ( unit (fun () -> Weights.add_noise w i (Cs_util.Rng.create seed) f),
        unit (fun () -> Full.noise m i (Cs_util.Rng.create seed) f) )
    | W_mask (i, lo, hi) ->
      ( unit (fun () -> Weights.mask_time_window w i ~lo ~hi),
        unit (fun () -> Full.mask m i ~lo ~hi) )
    | W_blend (dst, src, keep) ->
      ( unit (fun () -> Weights.blend w ~dst ~src ~keep),
        unit (fun () -> Full.blend m ~dst ~src ~keep) )
    | W_gate ->
      ( (fun () -> Weights.normalize_validate_touched w),
        fun () -> Full.normalize_validate_touched m )
    | W_clear ->
      ( unit (fun () -> Weights_ref.clear_touched w),
        unit (fun () ->
            Array.fill m.Full.dirty 0 Full.n false;
            msnap := None) )
    | W_begin ->
      ( unit (fun () -> Weights.begin_pass w),
        unit (fun () ->
            Array.fill m.Full.dirty 0 Full.n false;
            msnap := Some (Full.copy m)) )
    | W_commit -> (unit (fun () -> Weights.commit w), unit (fun () -> msnap := None))
    | W_rollback ->
      ( unit (fun () -> Weights.rollback w),
        unit (fun () ->
            Option.iter (fun snap -> Full.restore ~snap m) !msnap;
            msnap := None) )
  in
  let outcome f = try f () with Invalid_argument e -> Error ("raised " ^ e) in
  outcome lib = outcome model

let bits = Int64.bits_of_float

let same_state w m =
  let ok = ref true in
  for i = 0 to Full.n - 1 do
    if Weights.is_touched w i <> m.Full.dirty.(i) then ok := false;
    if bits (Weights.row_total w i) <> bits m.Full.rt.(i) then ok := false;
    for c = 0 to Full.nc - 1 do
      if bits (Weights.cluster_weight w i c) <> bits m.Full.cs.((i * Full.nc) + c) then
        ok := false;
      for t = 0 to Full.nt - 1 do
        if bits (Weights.get w i c t) <> bits m.Full.e.(Full.k i c t) then ok := false
      done
    done
  done;
  !ok

(* The windowed kernels against the full-row ones, and the undo log
   against a whole-matrix snapshot: after every step of a random
   sequence, the entries and the marginals agree bit for bit, the
   touched flags agree, and both raised the same exception or returned
   the same gate verdict. A raising kernel may leave its row half
   written, and a rollback must then restore it. *)
let test_windows_full_row_qcheck =
  let prop =
    QCheck.Test.make ~count:500 ~name:"windowed kernels = full-row kernels, bit for bit"
      (QCheck.make QCheck.Gen.(list_size (int_range 1 60) wop_gen))
      (fun ops ->
        let w = Weights_ref.uniform ~n:Full.n ~nc:Full.nc ~nt:Full.nt and m = Full.create () in
        let model = (m, ref None) in
        List.for_all (fun op -> same_outcome w model op && same_state w m) ops)
  in
  to_alcotest prop

(* Everything about a matrix as bits: each row's entries, caches and
   live window, and (with [touched]) its touched flag. *)
let bits_state ?(touched = true) w =
  let bits = Int64.bits_of_float in
  List.init (Weights.n w) (fun i ->
      ( Array.init (Weights.nc w) (fun c ->
            Array.init (Weights.nt w) (fun t -> bits (Weights.get w i c t))),
        ( Array.init (Weights.nc w) (fun c -> bits (Weights.cluster_weight w i c)),
          bits (Weights.row_total w i) ),
        Weights.Inspect.window w i,
        touched && Weights.is_touched w i ))

(* The uniform start as the full-row model's [Full.create] builds it,
   for any shape, as bits: every entry [1 / (nc * nt)], each cluster
   sum [v * nt], each row total [v * (nc * nt)], the full window and no
   row touched. *)
let uniform_bits ~n ~nc ~nt =
  let v = 1.0 /. float_of_int (nc * nt) in
  List.init n (fun _ ->
      ( Array.make_matrix nc nt (bits v),
        (Array.make nc (bits (v *. float_of_int nt)), bits (v *. float_of_int (nc * nt))),
        (0, nt - 1),
        false ))

(* The fused constructor against the protocol it replaces: the uniform
   start, INITTIME's masks on every row whose window leaves out a slot,
   then the gate. The uniform start itself, [create_windowed] with full
   windows, is checked against [uniform_bits]. Windows may span every
   slot, leave none, or reach past either end. *)
let test_create_windowed_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun nc ->
      int_range 1 9 >>= fun nt ->
      let bound = int_range (-2) (nt + 1) in
      let window =
        frequency
          [
            (4, map (fun (lo, w) -> (lo, lo + w)) (pair (int_bound (nt - 1)) (int_bound 3)));
            (2, pair bound bound);
            (1, return (0, nt - 1));
          ]
      in
      map (fun ws -> (nc, nt, ws)) (list_size (int_bound 6) window))
  in
  let prop =
    QCheck.Test.make ~count:500 ~name:"create_windowed = create + masks + gate, bit for bit"
      (QCheck.make gen)
      (fun (nc, nt, ws) ->
        let lo = Array.of_list (List.map fst ws) and hi = Array.of_list (List.map snd ws) in
        let n = Array.length lo in
        let fused = Weights.create_windowed ~nc ~nt ~lo ~hi in
        let w = Weights_ref.uniform ~n ~nc ~nt in
        let uniform = bits_state w = uniform_bits ~n ~nc ~nt in
        Array.iteri
          (fun i lo ->
            if lo > 0 || hi.(i) < nt - 1 then Weights.mask_time_window w i ~lo ~hi:hi.(i))
          lo;
        uniform
        && Weights.normalize_validate_touched w = Ok ()
        && bits_state fused = bits_state w)
  in
  to_alcotest prop

(* One write of the window property on the library alone. *)
let lib_write w = function
  | W_set (i, c, t, v) -> Weights.set w i c t v
  | W_scale_cluster (i, c, f) -> Weights.scale_cluster w i c f
  | W_scale_time (i, t, f) -> Weights.scale_time w i t f
  | W_scale_clusters (i, fs) -> Weights.scale_clusters w i fs
  | W_noise (i, f, seed) -> Weights.add_noise w i (Cs_util.Rng.create seed) f
  | W_mask (i, lo, hi) -> Weights.mask_time_window w i ~lo ~hi
  | W_blend (dst, src, keep) -> Weights.blend w ~dst ~src ~keep
  | W_gate -> ignore (Weights.normalize_validate_touched w)
  | W_clear | W_begin | W_commit | W_rollback -> ()

(* Undo-log rollback against a snapshot: from any reachable state, a
   pass of random writes (some raising mid-row, some widening windows
   through [blend] and [set]) rolls back to the snapshot taken when it
   opened, bit for bit, windows included. *)
let test_rollback_snapshot_qcheck =
  let prop =
    QCheck.Test.make ~count:500 ~name:"undo-log rollback = snapshot, bit for bit"
      (QCheck.make
         QCheck.Gen.(pair (list_size (int_bound 30) wop_gen) (list_size (int_range 1 30) wop_gen)))
      (fun (prefix, pass) ->
        let w = Weights_ref.uniform ~n:Full.n ~nc:Full.nc ~nt:Full.nt in
        let write op = try lib_write w op with Invalid_argument _ -> () in
        List.iter write prefix;
        Weights.begin_pass w;
        let snapshot = Weights.copy w in
        List.iter write pass;
        Weights.rollback w;
        bits_state ~touched:false w = bits_state ~touched:false snapshot)
  in
  to_alcotest prop

(* One step of a random sequence on the library alone, the pass
   protocol included; a raising write is ignored. *)
let lib_step w op =
  try
    match op with
    | W_clear -> Weights_ref.clear_touched w
    | W_begin -> Weights.begin_pass w
    | W_commit -> Weights.commit w
    | W_rollback -> Weights.rollback w
    | op -> lib_write w op
  with Invalid_argument _ -> ()

(* Row [i]'s time marginals rebuilt from its entries (ascending cluster
   order), and the preferred slot as the old cached argmax took it:
   over every slot, ties within 1e-12 to the smallest. *)
let rebuilt_times w i = Array.init (Weights.nt w) (Weights_ref.time_weight w i)

let argmax_slot times =
  let best = ref 0 in
  Array.iteri (fun t v -> if v > times.(!best) +. 1e-12 then best := t) times;
  !best

(* The time marginals are computed on demand from the window: after
   every step of a random sequence (mid-pass, after a raising kernel
   left a row half written, after a rollback), [preferred_time] must
   pick the argmax of a rebuild from the entries. *)
let test_time_marginals_on_demand_qcheck =
  let prop =
    QCheck.Test.make ~count:500 ~name:"time marginals = from-entries rebuild after every op"
      (QCheck.make QCheck.Gen.(list_size (int_range 1 60) wop_gen))
      (fun ops ->
        let w = Weights_ref.uniform ~n:Full.n ~nc:Full.nc ~nt:Full.nt in
        List.for_all
          (fun op ->
            lib_step w op;
            List.for_all
              (fun i -> Weights.preferred_time w i = argmax_slot (rebuilt_times w i))
              (List.init Full.n Fun.id))
          ops)
  in
  to_alcotest prop

(* The gate with the totals the sweeping writers handed over against
   the full-row model's gate, which sums every row itself. Each pass
   opens with [scale_clusters] on a row and then writes the same row
   again with a writer that does not hand a total over ([set],
   [scale_cluster], [scale_time], a mask) or one that hands a new one
   over (a blend, noise), then runs random steps; every step and the
   closing gate must agree with the model on outcome, verdict,
   entries, caches and touched flags, bit for bit. *)
let test_handed_totals_gate_qcheck =
  let gen =
    QCheck.Gen.(
      let i = int_bound (Full.n - 1) in
      let factors = map Array.of_list (list_repeat Full.nc (float_bound_inclusive 3.0)) in
      let again i =
        oneof
          [
            map (fun (c, t, v) -> W_set (i, c, t, v))
              (triple (int_bound (Full.nc - 1)) (int_bound (Full.nt - 1))
                 (float_bound_inclusive 2.0));
            map (fun (c, f) -> W_scale_cluster (i, c, f))
              (pair (int_bound (Full.nc - 1)) (float_bound_inclusive 3.0));
            map (fun (t, f) -> W_scale_time (i, t, f))
              (pair (int_bound (Full.nt - 1)) (float_bound_inclusive 3.0));
            map (fun (lo, hi) -> W_mask (i, lo, hi))
              (pair (int_bound (Full.nt - 1)) (int_bound (Full.nt - 1)));
            map (fun (src, keep) -> W_blend (i, src, keep))
              (pair (int_bound (Full.n - 1)) (float_bound_inclusive 1.0));
            map (fun (f, seed) -> W_noise (i, f, seed)) (pair (float_bound_inclusive 3.0) nat);
            return W_clear;
          ]
      in
      let first =
        i >>= fun i -> map (fun (fs, op) -> (W_scale_clusters (i, fs), op)) (pair factors (again i))
      in
      tup3 (list_size (int_bound 20) wop_gen) first (list_size (int_bound 20) wop_gen))
  in
  let prop =
    QCheck.Test.make ~count:500 ~name:"gate with handed-over totals = full-sweep gate"
      (QCheck.make gen)
      (fun (prefix, (scale, again), rest) ->
        let w = Weights_ref.uniform ~n:Full.n ~nc:Full.nc ~nt:Full.nt and m = Full.create () in
        let model = (m, ref None) in
        let step op = same_outcome w model op && same_state w m in
        List.for_all step prefix
        && List.for_all step ((W_begin :: scale :: again :: rest) @ [ W_gate ]))
  in
  to_alcotest prop

(* The row kernels box no float per entry they visit, inside a pass or
   not. The undo log grows its buffers in the first pass of a matrix
   and reuses them after, so the pass measured is the second. *)
(* The rewritten kernels' raise path: a bad value partway through a
   row, with a pass open, must leave exactly what the per-element
   spelling leaves when [set] raises there: the entries written before
   it, the caches, the touched flags and the window; the handed-over
   total withdrawn, which the gate shows (the row first hands the gate
   a total, and a stale or partial one would normalize the row by the
   wrong float); the pass's undo log, which [rollback] shows; and, for
   NOISE, the generator's state, as the draws must stop at the bad
   value. Row 1 holds small entries and one huge one at (1, 2), so an
   overflowing factor raises there after earlier entries changed; a
   non-finite factor raises at its lane's first slot. For NOISE every
   entry of row 1 is [max_float / 2] (and one is +0.0, which draws
   nothing), so a bound of [max_float] overflows at about every second
   draw. *)
let test_kernel_raise_paths () =
  let n = 3 and nc = 3 and nt = 5 in
  let build fill =
    let w = Weights_ref.uniform ~n ~nc ~nt in
    for c = 0 to nc - 1 do
      for t = 0 to nt - 1 do
        Weights.set w 1 c t (fill c t)
      done
    done;
    (* Hands the gate the row's flat-order total. *)
    Weights.scale_clusters w 1 (Array.make nc 1.0);
    w
  in
  let small c t = if c = 1 && t = 2 then 1e10 else 1e-3 *. float_of_int (1 + (c * nt) + t) in
  let huge c t = if c = 2 && t = 3 then 0.0 else max_float /. 2.0 in
  let outcome f = try f (); "returned" with Invalid_argument e -> e in
  let same what a b = if a <> b then Alcotest.failf "%s differs from the per-element spelling" what in
  let raised = ref 0 and partway = ref 0 in
  let check name fill ~seed fused spelled =
    let w = build fill in
    let r = Weights.copy w in
    Weights.begin_pass w;
    Weights.begin_pass r;
    let rng_w = Cs_util.Rng.create seed and rng_r = Cs_util.Rng.create seed in
    let got = outcome (fun () -> fused w rng_w) and want = outcome (fun () -> spelled r rng_r) in
    same (name ^ ": outcome") got want;
    if got <> "returned" then begin
      incr raised;
      if Weights.is_touched w 1 then incr partway
    end;
    same (name ^ ": entries, caches, window, touched") (bits_state w) (bits_state r);
    same (name ^ ": generator state") (Cs_util.Rng.state rng_w) (Cs_util.Rng.state rng_r);
    let gated m =
      let m = Weights.copy m in
      let verdict = Weights.normalize_validate_touched m in
      (verdict, bits_state m)
    in
    same (name ^ ": gate after the raise") (gated w) (gated r);
    Weights.rollback w;
    Weights.rollback r;
    same (name ^ ": rollback") (bits_state w) (bits_state r);
    same (name ^ ": rollback = before the pass") (bits_state ~touched:false w)
      (bits_state ~touched:false (build fill))
  in
  let scale name f spelled = check name small ~seed:0 (fun w _ -> f w) (fun w _ -> spelled w) in
  List.iter
    (fun f ->
      let name = Printf.sprintf "scale_cluster x%g" f in
      scale name (fun w -> Weights.scale_cluster w 1 1 f) (fun w -> Weights_ref.scale_cluster w 1 1 f))
    [ 1e300; Float.infinity; Float.nan; -1.0 ];
  List.iter
    (fun f ->
      let name = Printf.sprintf "scale_time x%g" f in
      scale name (fun w -> Weights.scale_time w 1 2 f) (fun w -> Weights_ref.scale_time w 1 2 f))
    [ 1e300; Float.infinity ];
  List.iter
    (fun fs ->
      let name =
        "scale_clusters x" ^ String.concat "," (List.map (Printf.sprintf "%g") (Array.to_list fs))
      in
      scale name
        (fun w -> Weights.scale_clusters w 1 fs)
        (fun w -> Weights_ref.scale_clusters w 1 fs))
    [ [| 1e300; 1e300; 1e300 |]; [| 1.0; 1e300; 2.0 |]; [| 1.0; 1.0; Float.infinity |];
      [| 2.0; 1.0; Float.nan |] ];
  for seed = 0 to 31 do
    check (Printf.sprintf "add_noise seed %d" seed) huge ~seed
      (fun w rng -> Weights.add_noise w 1 rng max_float)
      (fun w rng -> Weights_ref.add_noise w 1 rng max_float)
  done;
  (* The cases above must reach both raise paths: after a change and
     before any. *)
  check_bool "some kernel raised after changing its row" true (!partway > 5);
  check_bool "some kernel raised before changing its row" true (!raised > !partway)

let test_kernels_allocation_free () =
  let n = 48 and nc = 4 and nt = 40 in
  let w = Weights_ref.uniform ~n ~nc ~nt in
  let factors = Array.init nc (fun c -> 1.0 +. (0.25 *. float_of_int c)) in
  let kernels =
    [
      ( "scale_cluster",
        fun () ->
          for i = 0 to n - 1 do
            for c = 0 to nc - 1 do
              Weights.scale_cluster w i c 1.5
            done
          done );
      ( "scale_clusters",
        fun () ->
          for i = 0 to n - 1 do
            Weights.scale_clusters w i factors
          done );
      ( "scale_time",
        fun () ->
          for i = 0 to n - 1 do
            for t = 0 to nt - 1 do
              Weights.scale_time w i t 0.75
            done
          done );
    ]
  in
  let check where =
    List.iter
      (fun (name, f) ->
        let before = Gc.minor_words () in
        f ();
        let per_entry = (Gc.minor_words () -. before) /. float_of_int (n * nc * nt) in
        if per_entry > 0.01 then
          Alcotest.failf "%s %s: %.3f minor words per entry" name where per_entry)
      kernels
  in
  check "outside a pass";
  Weights.begin_pass w;
  List.iter (fun (_, f) -> f ()) kernels;
  Weights.commit w;
  Weights.begin_pass w;
  check "inside a pass";
  Weights.commit w;
  (* Per call, the marginal readers and the other writers PATHPROP,
     COMM and NOISE run box nothing either: no closure, no float
     returned from a call inside them. [confidence] itself returns a
     float, which the calling convention boxes; it is read here into a
     float array, and that box (2 words) is all it may cost;
     [confidence_into] and [confidences], which PATHPROP uses, store the
     float themselves and box nothing. [preferred_time] sums into a
     per-domain scratch, on full and on narrowed windows. Each body runs
     [rounds] times over every row, so a constant outside the loops is
     far under a word per call. *)
  let rounds = 20 in
  let conf = Array.make n 0.0 and into = Array.make nc 0.0 and rng = Cs_util.Rng.create 7 in
  let windowed =
    Weights.create_windowed ~nc ~nt
      ~lo:(Array.init n (fun i -> i mod 7))
      ~hi:(Array.init n (fun i -> nt - 1 - (i mod 5)))
  in
  let per_call =
    [
      ( "confidence", 2.0,
        fun i -> Array.unsafe_set conf i (Weights.confidence w i) );
      ("confidence_into", 0.0, fun i -> Weights.confidence_into w i conf);
      ("confidences", 0.0, fun i -> if i = 0 then Weights.confidences w conf);
      ("preferred_cluster", 0.0, fun i -> ignore (Weights.preferred_cluster w i : int));
      ("preferred_time", 0.0, fun i -> ignore (Weights.preferred_time w i : int));
      ( "preferred_time (windowed)", 0.0,
        fun i -> ignore (Weights.preferred_time windowed i : int) );
      ("blend", 0.0, fun i -> Weights.blend w ~dst:i ~src:((i + 1) mod n) ~keep:0.75);
      ("add_noise", 0.0, fun i -> Weights.add_noise w i rng 0.01);
      ( "add_cluster_marginals", 0.0,
        fun i -> Weights.add_cluster_marginals w i ~weight:0.5 ~into ~at:0 );
    ]
  in
  let check_calls where =
    List.iter
      (fun (name, allowed, f) ->
        let before = Gc.minor_words () in
        for _ = 1 to rounds do
          for i = 0 to n - 1 do
            f i
          done
        done;
        let words = (Gc.minor_words () -. before) /. float_of_int (rounds * n) in
        if words > allowed +. 0.5 then
          Alcotest.failf "%s %s: %.2f minor words per call (at most %.0f)" name where words
            allowed)
      per_call
  in
  check_calls "outside a pass";
  Weights.begin_pass w;
  List.iter (fun (_, _, f) -> f 0) per_call;
  Weights.commit w;
  Weights.begin_pass w;
  check_calls "inside a pass";
  Weights.commit w

(* [preferred_time] sums a row lane by lane; it must pick the slot an
   argmax over per-slot sums in ascending cluster order picks, ties within 1e-12
   to the smallest slot, on rows built windowed, some left with equal
   entries (all ties) and some made distinct by noise. *)
let test_preferred_time_lanes_qcheck =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun nc ->
      int_range 1 24 >>= fun nt ->
      let row = triple (int_range (-1) nt) (int_range (-1) nt) (opt nat) in
      map (fun rows -> (nc, nt, rows)) (list_size (int_range 1 6) row))
  in
  let prop =
    QCheck.Test.make ~count:500 ~name:"lane-major preferred_time = slot_sum argmax"
      (QCheck.make gen)
      (fun (nc, nt, rows) ->
        let lo = Array.of_list (List.map (fun (l, _, _) -> l) rows)
        and hi = Array.of_list (List.map (fun (_, h, _) -> h) rows) in
        let w = Weights.create_windowed ~nc ~nt ~lo ~hi in
        List.iteri
          (fun i (_, _, noise) ->
            Option.iter (fun seed -> Weights.add_noise w i (Cs_util.Rng.create seed) 0.5) noise)
          rows;
        List.for_all
          (fun i ->
            let best = ref 0 and best_v = ref 0.0 in
            for t = 0 to nt - 1 do
              let v = Weights_ref.time_weight w i t in
              if t = 0 then best_v := v
              else if v > !best_v +. 1e-12 then begin
                best := t;
                best_v := v
              end
            done;
            Weights.preferred_time w i = !best)
          (List.init (Weights.n w) Fun.id))
  in
  to_alcotest prop

(* [confidences] and [confidence_into] store [confidence]'s floats, bit
   for bit, on matrices left by random op sequences. *)
let test_confidences_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"confidences = confidence per row, bit for bit"
      (QCheck.make ops_gen)
      (fun ops ->
        let w = run_ops ops in
        let all = Array.make pn nan and one = Array.make pn nan in
        Weights.confidences w all;
        for i = 0 to pn - 1 do
          Weights.confidence_into w i one
        done;
        List.for_all
          (fun i ->
            let c = bits (Weights.confidence w i) in
            bits all.(i) = c && bits one.(i) = c)
          (List.init pn Fun.id))
  in
  to_alcotest prop

(* --- the per-domain store ---------------------------------------------- *)

let in_fresh_domain f = Domain.join (Domain.spawn f)

(* A matrix to build: [n], [nc], [nt], and the windows of
   [create_windowed] or [None] for the uniform matrix. *)
type store_op = Make of int * int * int * (int * int) list option | Again | Free of int

let store_ops_gen =
  QCheck.Gen.(
    let make =
      int_range 1 4 >>= fun nc ->
      int_range 1 10 >>= fun nt ->
      int_bound 8 >>= fun n ->
      let windows = list_repeat n (pair (int_range (-1) nt) (int_range (-1) nt)) in
      map (fun ws -> Make (n, nc, nt, ws)) (opt windows)
    in
    list_size (int_range 1 12)
      (frequency [ (4, make); (1, return Again); (3, map (fun k -> Free k) nat) ]))

let build (n, nc, nt, windows) =
  match windows with
  | None -> Weights_ref.uniform ~n ~nc ~nt
  | Some ws ->
    Weights.create_windowed ~nc ~nt
      ~lo:(Array.of_list (List.map fst ws))
      ~hi:(Array.of_list (List.map snd ws))

(* Overwrite every entry with a value unique to the matrix [tag] and
   the entry, so a store shared by two live matrices shows. *)
let scribble tag w =
  let k = ref 0 in
  for i = 0 to Weights.n w - 1 do
    for c = 0 to Weights.nc w - 1 do
      for t = 0 to Weights.nt w - 1 do
        Weights.set w i c t (1.0 +. float_of_int ((tag * 1000) + !k));
        incr k
      done
    done
  done

(* What a new matrix shows: its state, the gate's verdict (which reads
   the handed-over totals: a fresh matrix has none) and the state the
   gate leaves. *)
let fresh_view w =
  let before = bits_state w in
  let gate = Weights.normalize_validate_touched w in
  (before, gate, bits_state w)

(* Random sequences of builds (growing, shrinking, repeating the last
   size) and releases (some released twice) on the test's domain, which
   reuses stores, against the same builds on a domain that never
   releases, where every matrix is fresh: every new matrix must match
   its fresh twin bit for bit, and after all the writes every matrix
   still live must too. *)
let test_store_reuse_qcheck =
  let prop =
    QCheck.Test.make ~count:200 ~name:"reused store = fresh matrix, bit for bit"
      (QCheck.make store_ops_gen)
      (fun ops ->
        let specs =
          let last = ref None in
          List.filter_map
            (fun op ->
              match (op, !last) with
              | Make (n, nc, nt, ws), _ ->
                last := Some (n, nc, nt, ws);
                !last
              | Again, last -> last
              | Free _, _ -> None)
            ops
        in
        let fresh =
          in_fresh_domain (fun () ->
              Array.of_list
                (List.mapi
                   (fun tag spec ->
                     let w = build spec in
                     let view = fresh_view w in
                     scribble tag w;
                     (view, bits_state w))
                   specs))
        in
        let live = ref [] and tag = ref 0 and ok = ref true in
        List.iter
          (fun op ->
            match op with
            | Make _ | Again ->
              if !tag < Array.length fresh then begin
                let w = build (List.nth specs !tag) in
                if fresh_view w <> fst fresh.(!tag) then ok := false;
                scribble !tag w;
                live := (!tag, w) :: !live;
                incr tag
              end
            | Free k -> (
              match !live with
              | [] -> ()
              | l ->
                let t, w = List.nth l (k mod List.length l) in
                Weights.release w;
                if k mod 3 = 0 then Weights.release w;
                live := List.filter (fun (t', _) -> t' <> t) l))
          ops;
        List.iter (fun (t, w) -> if bits_state w <> snd fresh.(t) then ok := false) !live;
        !ok)
  in
  to_alcotest prop

(* A released store goes to the next matrix that fits in it; entries
   of a released matrix alias that matrix's, which is how the reuse
   shows here. The domain keeps the larger of two released stores. *)
let test_release_reuses_store () =
  in_fresh_domain (fun () ->
      check_int "a fresh domain keeps nothing" 0 (Weights.Inspect.retained_floats ());
      let big = Weights_ref.uniform ~n:10 ~nc:4 ~nt:8 in
      Weights.release big;
      check_int "released store kept" 320 (Weights.Inspect.retained_floats ());
      let small = Weights_ref.uniform ~n:6 ~nc:2 ~nt:5 in
      check_int "store taken" 0 (Weights.Inspect.retained_floats ());
      check_bool "small reuses big's store" true
        (bits (Weights.get big 0 0 0) = bits (Weights.get small 0 0 0)
        && bits (Weights.get small 0 0 0) = bits 0.1);
      let larger = Weights_ref.uniform ~n:20 ~nc:4 ~nt:8 in
      Weights.release small;
      check_int "small hands back the whole store" 320 (Weights.Inspect.retained_floats ());
      Weights.release larger;
      check_int "the larger store is kept" 640 (Weights.Inspect.retained_floats ());
      Weights.release big;
      check_int "a store already handed back is not kept twice" 640
        (Weights.Inspect.retained_floats ()))

(* Releasing twice hands the store back once: a second release while
   the store serves a live matrix must not give it to a third. *)
let test_release_twice_noop () =
  in_fresh_domain (fun () ->
      let a = Weights_ref.uniform ~n:4 ~nc:2 ~nt:4 in
      Weights.release a;
      let b = Weights_ref.uniform ~n:4 ~nc:2 ~nt:4 in
      Weights.release a;
      let c = Weights_ref.uniform ~n:4 ~nc:2 ~nt:4 in
      Weights.set b 0 0 0 0.75;
      check_bool "c keeps its own entry" true (bits (Weights.get c 0 0 0) = bits 0.125);
      check_bool "b has its write" true (bits (Weights.get b 0 0 0) = bits 0.75))

(* Rows of [nc * nt] = 64 floats just past the cap. *)
let above_cap_rows = (Weights.Inspect.store_cap / 64) + 1

(* Neither a matrix store nor an undo log above the cap stays on the
   domain after its matrix or pass is done. *)
let test_store_cap () =
  in_fresh_domain (fun () ->
      let huge = Weights_ref.uniform ~n:above_cap_rows ~nc:8 ~nt:8 in
      Weights.begin_pass huge;
      for i = 0 to above_cap_rows - 1 do
        Weights.scale_cluster huge i 0 0.5
      done;
      Weights.commit huge;
      let kept = Weights.Inspect.retained_floats () in
      check_bool "the log keeps chunks up to the cap" true (kept > 0);
      check_bool "and no more" true (kept <= Weights.Inspect.store_cap);
      Weights.release huge;
      check_int "a store above the cap is not kept" kept (Weights.Inspect.retained_floats ());
      let small = Weights_ref.uniform ~n:2 ~nc:2 ~nt:2 in
      check_bool "nor reused" true (bits (Weights.get huge 0 1 0) = bits (1.0 /. 64.0));
      check_bool "small is uniform" true (bits (Weights.get small 0 0 0) = bits 0.25))

(* qcheck: random edit sequences + normalize preserve invariants. *)
let edit_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (tup4 (int_bound 3) (int_bound 2) (int_bound 4) (float_bound_inclusive 5.0)))

let test_random_edits_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"edits + normalize keep invariants"
      (QCheck.make edit_gen)
      (fun edits ->
        let w = Weights_ref.uniform ~n:4 ~nc:3 ~nt:5 in
        List.iter
          (fun (i, c, t, v) ->
            match (i + c + t) mod 3 with
            | 0 -> Weights.set w i c t v
            | 1 -> Weights_ref.add w i c t v
            | _ -> Weights.scale w i c t v)
          edits;
        Weights.normalize_validate_touched w = Ok () && ok_invariants w)
  in
  to_alcotest prop

let test_random_blends_qcheck =
  let gen = QCheck.Gen.(list_size (int_bound 40) (tup3 (int_bound 3) (int_bound 3) (float_bound_inclusive 1.0))) in
  let prop =
    QCheck.Test.make ~count:200 ~name:"blends keep invariants" (QCheck.make gen)
      (fun blends ->
        let w = Weights_ref.uniform ~n:4 ~nc:2 ~nt:3 in
        List.iter (fun (d, s, keep) -> Weights.blend w ~dst:d ~src:s ~keep) blends;
        Weights.normalize_validate_touched w = Ok () && ok_invariants w)
  in
  to_alcotest prop

let test_marginal_consistency_qcheck =
  let prop =
    QCheck.Test.make ~count:200 ~name:"preferred cluster maximizes marginal"
      (QCheck.make edit_gen)
      (fun edits ->
        let w = Weights_ref.uniform ~n:4 ~nc:3 ~nt:5 in
        List.iter (fun (i, c, t, v) -> Weights.set w i c t v) edits;
        Weights_ref.gate w;
        let ok = ref true in
        for i = 0 to 3 do
          let p = Weights.preferred_cluster w i in
          for c = 0 to 2 do
            if Weights.cluster_weight w i c > Weights.cluster_weight w i p +. 1e-9 then
              ok := false
          done
        done;
        !ok)
  in
  to_alcotest prop

(* The claim order (extraction's and PATHPROP's) against the sort it
   replaced: [Array.stable_sort] over the movable ids, descending
   confidence, ties to the lower id. Confidences are drawn from a small
   pool so duplicates are common, with the 1e9 sentinel, values one ulp
   apart, both zeros and the special floats; the movable set may be
   empty. *)
let test_claim_order_qcheck =
  let conf_gen =
    QCheck.Gen.(
      frequency
        [ (4, float_range 1.0 50.0);
          (3, oneofl [ 1.0; 2.5; 7.0; Weights.confidence_sentinel ]);
          (1, oneofl [ Float.succ 1.0; Float.pred 1e9; 0.0; -0.0; -1.0 ]);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; Float.min_float ]) ])
  in
  let gen =
    QCheck.Gen.(
      int_range 0 300 >>= fun n ->
      pair (array_repeat n conf_gen)
        (oneof [ return (Array.make n false); array_repeat n (map (fun k -> k > 0) (int_bound 3)) ]))
  in
  let print (conf, movable) =
    String.concat " "
      (List.mapi (fun i c -> Printf.sprintf "%d:%h%s" i c (if movable.(i) then "" else "(fixed)"))
         (Array.to_list conf))
  in
  QCheck.Test.make ~count:2000 ~name:"claim order = stable sort by descending confidence"
    (QCheck.make ~print gen) (fun (conf, movable) ->
      let expected =
        List.filter (fun i -> movable.(i)) (List.init (Array.length movable) Fun.id)
        |> Array.of_list
      in
      Array.stable_sort
        (fun a b ->
          let c = Float.compare conf.(b) conf.(a) in
          if c <> 0 then c else Int.compare a b)
        expected;
      Weights.claim_order conf movable = expected)
  |> to_alcotest

let () =
  Alcotest.run "cs_core.weights"
    [
      ( "weights",
        [
          Alcotest.test_case "create uniform" `Quick test_create_uniform;
          Alcotest.test_case "set updates marginals" `Quick test_set_updates_marginals;
          Alcotest.test_case "set rejects negative" `Quick test_set_rejects_negative;
          Alcotest.test_case "index bounds" `Quick test_index_bounds;
          Alcotest.test_case "scale cluster" `Quick test_scale_cluster;
          Alcotest.test_case "scale time" `Quick test_scale_time;
          Alcotest.test_case "normalize" `Quick test_normalize_restores_sum;
          Alcotest.test_case "normalize zero row" `Quick test_normalize_zero_row_resets_uniform;
          Alcotest.test_case "tie break" `Quick test_preferred_tie_break;
          Alcotest.test_case "runner-up" `Quick test_runnerup;
          Alcotest.test_case "confidence" `Quick test_confidence;
          Alcotest.test_case "confidence sentinel" `Quick test_confidence_sentinel;
          Alcotest.test_case "blend" `Quick test_blend;
          Alcotest.test_case "blend self noop" `Quick test_blend_self_noop;
          Alcotest.test_case "blend bad keep" `Quick test_blend_rejects_bad_keep;
          Alcotest.test_case "blend self noop clean" `Quick test_blend_self_noop_clean;
          Alcotest.test_case "blend withdraws the total" `Quick test_blend_withdraws_total;
          Alcotest.test_case "copy deep" `Quick test_copy_is_deep;
          Alcotest.test_case "validate gate" `Quick test_validate_gate;
          Alcotest.test_case "gate verdict at the edges" `Quick test_gate_verdict_edges;
          Alcotest.test_case "snapshot" `Quick test_preferred_clusters_snapshot;
          Alcotest.test_case "kernels allocation-free" `Quick test_kernels_allocation_free;
          Alcotest.test_case "kernel raise paths = per-element spelling" `Quick
            test_kernel_raise_paths;
        ] );
      ( "dirty",
        [
          Alcotest.test_case "fresh matrix untouched" `Quick test_fresh_matrix_untouched;
          Alcotest.test_case "marks written rows" `Quick
            test_touched_marks_exactly_written_rows;
          Alcotest.test_case "no-op writes stay clean" `Quick
            test_noop_writes_do_not_dirty;
          Alcotest.test_case "normalize touched" `Quick
            test_normalize_touched_only_touched;
          Alcotest.test_case "rollback restores" `Quick
            test_rollback_restores_exact_rows;
          Alcotest.test_case "two open passes" `Quick test_two_open_passes;
          Alcotest.test_case "rollback of long logs" `Quick test_rollback_long_rows;
        ] );
      ( "properties",
        [
          test_random_edits_qcheck; test_random_blends_qcheck;
          test_marginal_consistency_qcheck;
          test_ops_invariants_qcheck; test_kernels_per_element_qcheck;
          test_ops_dirty_exact_qcheck; test_blend_pointwise_qcheck;
          test_normalize_pointwise_qcheck; test_gate_fused_qcheck; test_blends_then_gate_qcheck;
          test_windows_full_row_qcheck; test_create_windowed_qcheck;
          test_rollback_snapshot_qcheck; test_time_marginals_on_demand_qcheck;
          test_handed_totals_gate_qcheck; test_preferred_time_lanes_qcheck;
          test_confidences_qcheck; test_claim_order_qcheck;
        ] );
      ( "store",
        [
          Alcotest.test_case "release reuses the store" `Quick test_release_reuses_store;
          Alcotest.test_case "release twice is a no-op" `Quick test_release_twice_noop;
          Alcotest.test_case "nothing above the cap is kept" `Quick test_store_cap;
          test_store_reuse_qcheck;
        ] );
    ]
