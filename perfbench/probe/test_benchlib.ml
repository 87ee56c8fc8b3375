(* Tests for the benchmark's own helpers. *)

open Benchlib
module Json = Cs_obs.Json

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  (* 1000 samples: p99 is rank 990, with exactly ten samples beyond *)
  Alcotest.(check int) "rank" 990 (rank ~n:1000 99.0);
  Alcotest.(check int) "beyond" 10 (beyond ~n:1000 99.0);
  Alcotest.(check int) "needed for p99" 1000 (samples_needed 99.0);
  Alcotest.(check int) "needed for p50" 20 (samples_needed 50.0);
  (match percentile ~min_beyond:10 99.0 (floats 1000) with
  | Ok v -> Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 v
  | Error e -> Alcotest.fail e);
  (match percentile ~min_beyond:10 99.0 (floats 999) with
  | Ok _ -> Alcotest.fail "999 samples leave only 9 beyond p99"
  | Error _ -> ());
  Alcotest.(check (float 0.0)) "median of 1..9" 5.0 (median (floats 9));
  Alcotest.(check (float 0.0)) "unsorted input" 3.0 (median [ 5.0; 1.0; 3.0; 4.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "empty is 0" 0.0 (pct 99.0 [])

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (valid_name s))
    [ "p50_ms"; "pass.PATHPROP.ms"; "shard.queue_wait_ms.p99"; "9lives"; "a-b" ];
  List.iter
    (fun s -> Alcotest.(check bool) s false (valid_name s))
    [ ""; ".hidden"; "_x"; "has space"; "slash/name"; String.make 65 'a' ];
  List.iter (fun u -> Alcotest.(check bool) u true (valid_unit u)) [ "ms"; "1/s"; "MiB"; "%" ];
  List.iter (fun u -> Alcotest.(check bool) u false (valid_unit u)) [ ""; "m s"; String.make 17 'x' ]

let test_due_times () =
  let t0 = 100.0 in
  Alcotest.(check (float 1e-12)) "first job at t0" 100.0 (due ~t0 ~rate:50.0 0);
  Alcotest.(check (float 1e-12)) "50/s spacing" 100.02 (due ~t0 ~rate:50.0 1);
  Alcotest.(check (float 1e-9)) "job 1000 at 20 s" 120.0 (due ~t0 ~rate:50.0 1000);
  Alcotest.(check int) "jobs in 20 s at 50/s" 1000 (n_jobs ~rate:50.0 ~seconds:20.0);
  Alcotest.(check int) "partial slot dropped" 5 (n_jobs ~rate:2.5 ~seconds:2.2);
  Alcotest.(check (float 1e-9)) "late" 3.0 (late_ms ~due:1.0 ~sent:1.003);
  Alcotest.(check (float 0.0)) "never early" 0.0 (late_ms ~due:1.0 ~sent:0.999)

let shape_ok = function Ok () -> true | Error _ -> false

let test_result_shape () =
  let good =
    result_json ~correct:true ~attempted:1000 ~failed:0
      [ metric "p50_ms" "ms" 1.2034; metric "setup_s" "s" 0.8127 ]
  in
  Alcotest.(check bool) "well formed" true (shape_ok (check_result good));
  Alcotest.(check bool) "expected names" true
    (shape_ok (check_result ~expected:[ "setup_s"; "p50_ms" ] good));
  Alcotest.(check bool) "missing a name" false
    (shape_ok (check_result ~expected:[ "setup_s"; "p50_ms"; "p99_ms" ] good));
  (match Json.of_string (Json.to_string good) with
  | Ok j -> Alcotest.(check bool) "round trip" true (shape_ok (check_result j))
  | Error e -> Alcotest.fail e);
  let bad =
    [ ("attempted 0", result_json ~correct:true ~attempted:0 ~failed:0 []);
      ("failed > attempted", result_json ~correct:false ~attempted:1 ~failed:2 []);
      ("bad name", result_json ~correct:true ~attempted:1 ~failed:0 [ metric "p 50" "ms" 1.0 ]);
      ("bad unit", result_json ~correct:true ~attempted:1 ~failed:0 [ metric "p50" "m s" 1.0 ]);
      ("not finite", result_json ~correct:true ~attempted:1 ~failed:0 [ metric "p50" "ms" nan ]);
      ( "duplicate",
        result_json ~correct:true ~attempted:1 ~failed:0 [ metric "a" "ms" 1.0; metric "a" "ms" 2.0 ] );
      ("extra key", Json.Obj [ ("correct", Json.Bool true); ("extra", Json.Null) ]) ]
  in
  List.iter (fun (label, j) -> Alcotest.(check bool) label false (shape_ok (check_result j))) bad

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "open-loop due times" `Quick test_due_times;
          Alcotest.test_case "result JSON shape" `Quick test_result_shape ] ) ]
