(* Tests for the observability layer: disabled-sink no-ops, span
   nesting, export well-formedness, clock monotonicity, and determinism
   of the convergence telemetry. *)

open Cs_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_sink f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

(* --- disabled sink --- *)

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let r =
    Obs.span "outer" (fun () ->
        Obs.instant "i";
        Obs.counter "c" [ ("v", 1.0) ];
        Obs.begin_span "manual";
        Obs.end_span "manual";
        42)
  in
  check_int "span returns f ()" 42 r;
  check_int "nothing recorded" 0 (List.length (Obs.events ()));
  check_bool "still disabled" false (Obs.enabled ())

(* --- spans --- *)

let test_span_nesting_balances () =
  with_sink (fun () ->
      Obs.begin_span "outer";
      Obs.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.begin_span "deep";
      Obs.end_span "deep";
      Obs.end_span "outer";
      let evs = Obs.events () in
      let count p = List.length (List.filter p evs) in
      check_int "begins match ends"
        (count (fun e -> e.Obs.ph = Obs.Begin))
        (count (fun e -> e.Obs.ph = Obs.End));
      (* the functional span is contained in the manual outer one *)
      let ts_of name ph =
        (List.find (fun e -> e.Obs.name = name && e.Obs.ph = ph) evs).Obs.ts
      in
      let inner =
        List.find
          (fun e -> match e.Obs.ph with Obs.Complete _ -> e.Obs.name = "inner" | _ -> false)
          evs
      in
      let inner_dur = match inner.Obs.ph with Obs.Complete d -> d | _ -> 0.0 in
      check_bool "inner starts after outer begins" true (inner.Obs.ts >= ts_of "outer" Obs.Begin);
      check_bool "inner ends before outer ends" true
        (inner.Obs.ts +. inner_dur <= ts_of "outer" Obs.End);
      check_bool "duration non-negative" true (inner_dur >= 0.0))

let test_span_records_on_exception () =
  with_sink (fun () ->
      (try Obs.span "boom" (fun () -> failwith "no") with Failure _ -> ());
      check_int "span recorded despite raise" 1 (List.length (Obs.events ())))

let test_events_drains () =
  with_sink (fun () ->
      Obs.instant "a";
      Obs.instant "b";
      check_int "first drain sees both" 2 (List.length (Obs.events ()));
      check_int "second drain is empty" 0 (List.length (Obs.events ()));
      Obs.instant "c";
      check_int "recording resumes after drain" 1 (List.length (Obs.events ())))

let test_events_preserve_recording_order () =
  with_sink (fun () ->
      for i = 1 to 100 do
        Obs.instant (string_of_int i)
      done;
      let names = List.map (fun e -> e.Obs.name) (Obs.events ()) in
      check_bool "drained in recording order" true
        (names = List.init 100 (fun i -> string_of_int (i + 1))))

let test_bounded_capacity_counts_drops () =
  let saved = Obs.capacity () in
  Obs.reset ();
  Obs.set_capacity 100;
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_capacity saved)
    (fun () ->
      for _ = 1 to 250 do
        Obs.instant "tick"
      done;
      check_int "kept at most capacity" 100 (List.length (Obs.events ()));
      check_int "excess counted as dropped" 150 (Obs.dropped ());
      Obs.reset ();
      check_int "reset clears the drop counter" 0 (Obs.dropped ()))

let test_multi_domain_recording_loses_nothing () =
  with_sink (fun () ->
      let per_domain = 2_000 in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Obs.instant ~args:[ ("i", Obs.Int i) ] (Printf.sprintf "d%d" d)
                done))
      in
      List.iter Domain.join domains;
      let evs = Obs.events () in
      check_int "every domain's events captured" (4 * per_domain) (List.length evs);
      (* within one domain, recording order is preserved by the merge *)
      let d0 =
        List.filter_map
          (fun e ->
            if e.Obs.name = "d0" then
              match e.Obs.args with [ ("i", Obs.Int i) ] -> Some i | _ -> None
            else None)
          evs
      in
      check_bool "per-domain order intact" true
        (d0 = List.init per_domain (fun i -> i + 1)))

(* --- export --- *)

let sample_events () =
  with_sink (fun () ->
      Obs.span ~cat:"pass" ~args:[ ("round", Obs.Int 1) ] "PLACE" (fun () -> ());
      Obs.instant ~cat:"misc" ~args:[ ("note", Obs.Str "quo\"te\nline") ] "marker";
      Obs.counter ~cat:"converge" "converge:PLACE"
        [ ("churn", 3.0); ("mean_entropy", 1.25) ];
      Obs.events ())

let test_jsonl_well_formed () =
  let out = Export.jsonl (sample_events ()) in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  check_int "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
        check_bool "has name" true (List.mem_assoc "name" fields);
        check_bool "has ts" true (List.mem_assoc "ts" fields);
        check_bool "has ph" true (List.mem_assoc "ph" fields)
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.fail ("unparseable line: " ^ e))
    lines

let test_chrome_well_formed () =
  let evs = sample_events () in
  match Json.of_string (Export.chrome evs) with
  | Error e -> Alcotest.fail ("unparseable document: " ^ e)
  | Ok doc ->
    (match Json.member "traceEvents" doc with
    | Some (Json.List items) ->
      let metas, events =
        List.partition (fun i -> Json.member "ph" i = Some (Json.Str "M")) items
      in
      check_int "every event exported" (List.length evs) (List.length events);
      check_int "one process_name lane record" 1 (List.length metas);
      List.iter
        (fun item ->
          List.iter
            (fun key -> check_bool key true (Json.member key item <> None))
            [ "name"; "ph"; "ts"; "pid"; "tid" ];
          match Json.member "ph" item with
          | Some (Json.Str "X") ->
            check_bool "X has dur" true (Json.member "dur" item <> None)
          | _ -> ())
        events
    | _ -> Alcotest.fail "traceEvents missing")

let test_json_roundtrip_escapes () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd\te\r\x01");
        ("n", Json.Num 1.5);
        ("i", Json.Num 12345.0);
        ("l", Json.List [ Json.Bool true; Json.Null ]) ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "roundtrips" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_nonfinite_is_null () =
  check_bool "inf -> null" true (Json.to_string (Json.Num infinity) = "null");
  check_bool "nan -> null" true (Json.to_string (Json.Num Float.nan) = "null")

(* --- clock --- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check_bool "non-decreasing" true (t >= !prev);
    prev := t
  done;
  check_bool "since non-negative" true (Clock.since !prev >= 0.0)

(* --- convergence telemetry --- *)

let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()

let jacobi4 =
  (Option.get (Cs_workloads.Suite.find "jacobi")).Cs_workloads.Suite.generate ~clusters:4 ()

let converge_series () =
  with_sink (fun () ->
      ignore
        (Cs_core.Driver.run_iterative ~seed:7 ~max_rounds:2 ~epsilon:0.0 ~machine:vliw4
           jacobi4
           (Cs_core.Sequence.vliw_default ()));
      List.filter_map
        (fun e ->
          if e.Obs.cat = "converge" then
            Some
              ( e.Obs.name,
                List.map
                  (fun (k, v) ->
                    (k, match v with Obs.Float f -> f | _ -> Float.nan))
                  e.Obs.args )
          else None)
        (Obs.events ()))

let test_convergence_metrics_deterministic () =
  let a = converge_series () in
  let b = converge_series () in
  check_int "per-pass metrics for every pass of every round"
    (2 * (List.length (Cs_core.Sequence.vliw_default ()) + 1))
    (List.length a);
  check_bool "identical across runs" true (a = b);
  List.iter
    (fun (name, args) ->
      if name <> "converge:round" then begin
        check_bool (name ^ " has churn") true (List.mem_assoc "churn" args);
        check_bool (name ^ " has confidence") true (List.mem_assoc "mean_confidence" args);
        check_bool (name ^ " has entropy") true (List.mem_assoc "mean_entropy" args);
        check_bool (name ^ " confidence finite") true
          (Float.is_finite (List.assoc "mean_confidence" args))
      end)
    a

let test_telemetry_entropy_bounds () =
  let w = Weights_ref.uniform ~n:8 ~nc:4 ~nt:3 in
  let h = Cs_core.Telemetry.mean_row_entropy w in
  check_bool "uniform rows have log2 nc bits" true (Float.abs (h -. 2.0) < 1e-9);
  for i = 0 to 7 do
    Cs_core.Weights.scale_cluster w i 0 1000.0
  done;
  Weights_ref.gate w;
  check_bool "sharpened rows lose entropy" true (Cs_core.Telemetry.mean_row_entropy w < 2.0)

let () =
  Alcotest.run "cs_obs"
    [
      ( "sink",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "span nesting balances" `Quick test_span_nesting_balances;
          Alcotest.test_case "span survives exceptions" `Quick test_span_records_on_exception;
          Alcotest.test_case "events() drains" `Quick test_events_drains;
          Alcotest.test_case "drain preserves order" `Quick
            test_events_preserve_recording_order;
          Alcotest.test_case "bounded capacity counts drops" `Quick
            test_bounded_capacity_counts_drops;
          Alcotest.test_case "multi-domain loses nothing" `Quick
            test_multi_domain_recording_loses_nothing;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_well_formed;
          Alcotest.test_case "json escape roundtrip" `Quick test_json_roundtrip_escapes;
          Alcotest.test_case "non-finite numbers" `Quick test_json_nonfinite_is_null;
        ] );
      ( "clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "telemetry",
        [
          Alcotest.test_case "deterministic for fixed seed" `Quick
            test_convergence_metrics_deterministic;
          Alcotest.test_case "entropy bounds" `Quick test_telemetry_entropy_bounds;
        ] );
    ]
