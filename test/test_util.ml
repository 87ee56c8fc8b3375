(* Unit tests for Cs_util: RNG, union-find, stats, table, bitset. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Cs_util.Rng.create 7 and b = Cs_util.Rng.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Cs_util.Rng.bits64 a = Cs_util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Cs_util.Rng.create 1 and b = Cs_util.Rng.create 2 in
  check_bool "different seeds differ" false (Cs_util.Rng.bits64 a = Cs_util.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Cs_util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Cs_util.Rng.int rng 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Cs_util.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Cs_util.Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Cs_util.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Cs_util.Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_range () =
  let rng = Cs_util.Rng.create 11 in
  for _ = 1 to 200 do
    let v = Cs_util.Rng.range rng 5 9 in
    check_bool "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_range_covers_endpoints () =
  let rng = Cs_util.Rng.create 13 in
  let seen = Array.make 3 false in
  for _ = 1 to 300 do
    seen.(Cs_util.Rng.range rng 0 2) <- true
  done;
  Array.iter (fun b -> check_bool "endpoint hit" true b) seen

let test_rng_split_independent () =
  let parent = Cs_util.Rng.create 21 in
  let child = Cs_util.Rng.split parent in
  check_bool "split streams differ" false
    (Cs_util.Rng.bits64 parent = Cs_util.Rng.bits64 child)

let test_rng_copy () =
  let a = Cs_util.Rng.create 9 in
  ignore (Cs_util.Rng.bits64 a);
  let b = Cs_util.Rng.copy a in
  check_bool "copy replays" true (Cs_util.Rng.bits64 a = Cs_util.Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Cs_util.Rng.create 31 in
  let arr = Array.init 20 (fun i -> i) in
  Cs_util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_gaussian_moments () =
  let rng = Cs_util.Rng.create 43 in
  let n = 20000 in
  let samples = List.init n (fun _ -> Cs_util.Rng.gaussian rng) in
  let mean = Cs_util.Stats.mean samples in
  let sd = Cs_util.Stats.stddev samples in
  check_bool "mean near 0" true (Float.abs mean < 0.05);
  check_bool "sd near 1" true (Float.abs (sd -. 1.0) < 0.05)

(* --- Union-find --- *)

let test_uf_initial () =
  let uf = Cs_util.Union_find.create 5 in
  check_int "five sets" 5 (Cs_util.Union_find.n_sets uf);
  check_bool "not same" false (Cs_util.Union_find.same uf 0 1)

let test_uf_union () =
  let uf = Cs_util.Union_find.create 5 in
  ignore (Cs_util.Union_find.union uf 0 1);
  ignore (Cs_util.Union_find.union uf 1 2);
  check_bool "transitively same" true (Cs_util.Union_find.same uf 0 2);
  check_int "three sets" 3 (Cs_util.Union_find.n_sets uf)

let test_uf_idempotent_union () =
  let uf = Cs_util.Union_find.create 3 in
  ignore (Cs_util.Union_find.union uf 0 1);
  ignore (Cs_util.Union_find.union uf 0 1);
  check_int "two sets" 2 (Cs_util.Union_find.n_sets uf)

let test_uf_groups () =
  let uf = Cs_util.Union_find.create 4 in
  ignore (Cs_util.Union_find.union uf 0 2);
  let groups = Cs_util.Union_find.groups uf in
  check_int "three groups" 3 (Hashtbl.length groups);
  let r = Cs_util.Union_find.find uf 0 in
  Alcotest.(check (list int)) "members ascending" [ 0; 2 ] (Hashtbl.find groups r)

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.0 (Cs_util.Stats.mean [ 1.0; 2.0; 3.0 ])
let test_stats_mean_empty () = check_float "empty mean" 0.0 (Cs_util.Stats.mean [])

let test_stats_geomean () =
  check_float "geomean of 4,1" 2.0 (Cs_util.Stats.geomean [ 4.0; 1.0 ]);
  check_float "geomean of 2,2,2" 2.0 (Cs_util.Stats.geomean [ 2.0; 2.0; 2.0 ])

let test_stats_geomean_rejects_nonpositive () =
  Alcotest.check_raises "geomean <= 0"
    (Invalid_argument "Stats.geomean: non-positive input") (fun () ->
      ignore (Cs_util.Stats.geomean [ 1.0; 0.0 ]))

let test_stats_median_odd () = check_float "median odd" 2.0 (Cs_util.Stats.median [ 3.0; 1.0; 2.0 ])
let test_stats_median_even () =
  check_float "median even" 2.5 (Cs_util.Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_stddev () =
  check_float "stddev" 2.0 (Cs_util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percent_change () =
  check_float "+21%" 21.0 (Cs_util.Stats.percent_change ~baseline:100.0 121.0)

let test_stats_ratio_summary () =
  check_float "avg ratio" 1.5 (Cs_util.Stats.ratio_summary [ (3.0, 2.0); (3.0, 3.0); (4.0, 2.0) ])

(* --- Table --- *)

let test_table_renders_cells () =
  let t = Cs_util.Table.create ~header:[ "a"; "b" ] in
  Cs_util.Table.add_row t [ "hello"; "1" ];
  let s = Cs_util.Table.render t in
  check_bool "has header" true (String.length s > 0);
  check_bool "contains hello" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "hello"))

let test_table_ragged_rows () =
  let t = Cs_util.Table.create ~header:[ "x"; "y"; "z" ] in
  Cs_util.Table.add_row t [ "1" ];
  let s = Cs_util.Table.render t in
  check_bool "renders" true (String.length s > 0)

let test_table_cell_float () =
  Alcotest.(check string) "two decimals" "3.14" (Cs_util.Table.cell_float 3.14159);
  Alcotest.(check string) "zero decimals" "3" (Cs_util.Table.cell_float ~decimals:0 3.14159)

let test_table_bar () =
  Alcotest.(check string) "full bar" "##########"
    (Cs_util.Table.bar ~width:10 ~max_value:2.0 2.0);
  Alcotest.(check string) "half bar" "#####" (Cs_util.Table.bar ~width:10 ~max_value:2.0 1.0);
  Alcotest.(check string) "empty on zero max" "" (Cs_util.Table.bar ~width:10 ~max_value:0.0 1.0)

(* --- Wal --- *)

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cs_wal_%s_%d_%d" name (Unix.getpid ()) !n)
    in
    (* a stale dir from a killed earlier run must not leak records in *)
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

let last_segment dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".log")
  |> List.sort compare |> List.rev |> List.hd |> Filename.concat dir

let test_wal_roundtrip () =
  let dir = fresh_dir "roundtrip" in
  let wal, rec0 = Cs_util.Wal.open_dir ~dir () in
  check_int "fresh log has no records" 0 (List.length rec0.Cs_util.Wal.records);
  let payloads = [ "alpha"; ""; "with\nnewline"; String.make 4096 'x' ] in
  List.iter (Cs_util.Wal.append wal) payloads;
  Cs_util.Wal.sync wal;
  Cs_util.Wal.append_sync wal "tail";
  Cs_util.Wal.close wal;
  let wal2, rec1 = Cs_util.Wal.open_dir ~dir () in
  Alcotest.(check (list string))
    "records recovered in append order" (payloads @ [ "tail" ])
    rec1.Cs_util.Wal.records;
  check_int "clean log truncates nothing" 0 rec1.Cs_util.Wal.truncated_bytes;
  Cs_util.Wal.close wal2

let test_wal_torn_tail_truncated () =
  let dir = fresh_dir "torn" in
  let wal, _ = Cs_util.Wal.open_dir ~dir () in
  Cs_util.Wal.append_sync wal "keep-1";
  Cs_util.Wal.append_sync wal "keep-2";
  Cs_util.Wal.close wal;
  (* simulate a crash mid-append: garbage after the last whole record *)
  let seg = last_segment dir in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc "CSW1\x40\x00\x00\x00torn";
  close_out oc;
  let wal2, recov = Cs_util.Wal.open_dir ~dir () in
  Alcotest.(check (list string))
    "whole records survive" [ "keep-1"; "keep-2" ] recov.Cs_util.Wal.records;
  check_bool "tear measured" true (recov.Cs_util.Wal.truncated_bytes > 0);
  (* the log must be writable again, and the truncation durable *)
  Cs_util.Wal.append_sync wal2 "after-recovery";
  Cs_util.Wal.close wal2;
  let wal3, recov2 = Cs_util.Wal.open_dir ~dir () in
  Alcotest.(check (list string))
    "recovered log appends cleanly"
    [ "keep-1"; "keep-2"; "after-recovery" ]
    recov2.Cs_util.Wal.records;
  check_int "second scan is clean" 0 recov2.Cs_util.Wal.truncated_bytes;
  Cs_util.Wal.close wal3

let test_wal_corrupt_record_cuts_suffix () =
  let dir = fresh_dir "corrupt" in
  let wal, _ = Cs_util.Wal.open_dir ~dir () in
  Cs_util.Wal.append_sync wal "good";
  Cs_util.Wal.append_sync wal "to-be-damaged";
  Cs_util.Wal.append_sync wal "doomed-suffix";
  Cs_util.Wal.close wal;
  (* flip one payload byte inside the middle record: its CRC fails, and
     everything after the first bad record is untrustworthy *)
  let seg = last_segment dir in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
  let off = 12 + 4 + 12 + 2 (* rec1 frame+payload, rec2 header, 2 into payload *) in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let wal2, recov = Cs_util.Wal.open_dir ~dir () in
  Alcotest.(check (list string))
    "prefix up to the first bad record" [ "good" ] recov.Cs_util.Wal.records;
  check_bool "bad suffix counted" true (recov.Cs_util.Wal.truncated_bytes > 0);
  Cs_util.Wal.close wal2

let test_wal_rotation_and_reset () =
  let dir = fresh_dir "rotate" in
  let wal, _ = Cs_util.Wal.open_dir ~segment_bytes:64 ~dir () in
  for i = 1 to 12 do
    Cs_util.Wal.append_sync wal (Printf.sprintf "record-%02d" i)
  done;
  Cs_util.Wal.close wal;
  let n_segments =
    Array.length
      (Array.of_list
         (List.filter
            (fun n -> Filename.check_suffix n ".log")
            (Array.to_list (Sys.readdir dir))))
  in
  check_bool "rotated into multiple segments" true (n_segments > 1);
  let wal2, recov = Cs_util.Wal.open_dir ~segment_bytes:64 ~dir () in
  check_int "all records span segments" 12 (List.length recov.Cs_util.Wal.records);
  check_int "segments reported" n_segments recov.Cs_util.Wal.segments;
  Cs_util.Wal.reset wal2;
  check_int "reset empties the log" 0 (Cs_util.Wal.size_bytes wal2);
  Cs_util.Wal.close wal2;
  let wal3, recov3 = Cs_util.Wal.open_dir ~dir () in
  check_int "nothing to recover after reset" 0
    (List.length recov3.Cs_util.Wal.records);
  Cs_util.Wal.close wal3

let test_wal_group_commit_concurrent () =
  let dir = fresh_dir "group" in
  let wal, _ = Cs_util.Wal.open_dir ~dir () in
  let per_domain = 50 in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Cs_util.Wal.append_sync wal (Printf.sprintf "d%d-%03d" d i)
            done))
  in
  List.iter Domain.join writers;
  Cs_util.Wal.close wal;
  let wal2, recov = Cs_util.Wal.open_dir ~dir () in
  check_int "every concurrent append durable" (4 * per_domain)
    (List.length recov.Cs_util.Wal.records);
  (* per-writer record order must be preserved even across batches *)
  List.iteri
    (fun d _ ->
      let prefix = Printf.sprintf "d%d-" d in
      let mine =
        List.filter
          (fun r -> String.length r > 3 && String.sub r 0 3 = prefix)
          recov.Cs_util.Wal.records
      in
      Alcotest.(check (list string))
        (Printf.sprintf "writer %d in order" d)
        (List.init per_domain (fun i -> Printf.sprintf "%s%03d" prefix i))
        mine)
    [ 0; 1; 2; 3 ];
  Cs_util.Wal.close wal2

(* --- Fsio --- *)

let test_fsio_sweeps_orphan_temps () =
  let dir = fresh_dir "fsio" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "artifact.json" in
  (* orphans from writers that crashed between create and rename *)
  let orphan1 = path ^ ".tmp.999999" and orphan2 = path ^ ".tmp.4242" in
  List.iter
    (fun p ->
      let oc = open_out p in
      output_string oc "half-written";
      close_out oc)
    [ orphan1; orphan2 ];
  Cs_util.Fsio.write_atomic ~path "fresh contents";
  Alcotest.(check (option string))
    "write lands" (Some "fresh contents") (Cs_util.Fsio.read_opt path);
  check_bool "orphan 1 swept" false (Sys.file_exists orphan1);
  check_bool "orphan 2 swept" false (Sys.file_exists orphan2);
  (* non-temp siblings must survive the sweep *)
  let sibling = Filename.concat dir "artifact.json.bak" in
  let oc = open_out sibling in
  output_string oc "keep";
  close_out oc;
  Cs_util.Fsio.write_atomic ~path "again";
  check_bool "unrelated sibling untouched" true (Sys.file_exists sibling)

let () =
  Alcotest.run "cs_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "range bounds" `Quick test_rng_range;
          Alcotest.test_case "range endpoints" `Quick test_rng_range_covers_endpoints;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "initial" `Quick test_uf_initial;
          Alcotest.test_case "union" `Quick test_uf_union;
          Alcotest.test_case "idempotent" `Quick test_uf_idempotent_union;
          Alcotest.test_case "groups" `Quick test_uf_groups;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "geomean rejects" `Quick test_stats_geomean_rejects_nonpositive;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percent change" `Quick test_stats_percent_change;
          Alcotest.test_case "ratio summary" `Quick test_stats_ratio_summary;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders_cells;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "cell float" `Quick test_table_cell_float;
          Alcotest.test_case "bar" `Quick test_table_bar;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append/recover roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick test_wal_torn_tail_truncated;
          Alcotest.test_case "corrupt record cuts suffix" `Quick
            test_wal_corrupt_record_cuts_suffix;
          Alcotest.test_case "rotation + reset" `Quick test_wal_rotation_and_reset;
          Alcotest.test_case "concurrent group commit" `Quick
            test_wal_group_commit_concurrent;
        ] );
      ( "fsio",
        [ Alcotest.test_case "orphan temp sweep" `Quick test_fsio_sweeps_orphan_temps ] );
    ]
