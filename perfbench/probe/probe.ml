(* The benchmark's measuring program: runs one workload and prints one
   JSON result line on stdout (progress goes to stderr).

     probe.exe --workload NAME --seed N --seconds S --trace 0|1
               [--csched EXE] [--dir perfbench] [--spec BENCHMARK.json]

   --trace 0 measures the end-to-end metrics; --trace 1 makes the
   decomposed per-layer calls instead. The metric names and units printed
   must be exactly the ones the spec file lists for that mode. *)

module Json = Cs_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("probe: " ^ s); exit 2) fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> fail "%s" e
  | text -> ( match Json.of_string text with Ok j -> j | Error e -> fail "%s: %s" path e)

let member path key j =
  match Json.member key j with Some v -> v | None -> fail "%s: no %S" path key

let num path key j =
  match member path key j with Json.Num f -> f | _ -> fail "%s: %S is not a number" path key

(* [(name, unit)] of every metric in one section of the spec. *)
let spec_metrics path section =
  match member path section (read_json path) with
  | Json.List items ->
    List.map
      (fun item ->
        match (Json.member "name" item, Json.member "unit" item) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> fail "%s: malformed %s entry" path section)
      items
  | _ -> fail "%s: %S is not a list" path section

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let csched = ref "_build/default/bin/csched.exe" and dir = ref "perfbench" in
  let spec = ref "BENCHMARK.json" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer breakdown");
      ("--csched", Arg.Set_string csched, "EXE the built csched binary (traced fleet stage)");
      ("--dir", Arg.Set_string dir, "DIR the benchmark's directory (config, golden table)");
      ("--spec", Arg.Set_string spec, "FILE the benchmark spec listing metric names") ]
    (fun a -> fail "unexpected argument %S" a)
    "probe.exe --workload NAME --seed N --seconds S --trace 0|1";
  let config_path = Filename.concat !dir "config.json" in
  let config = read_json config_path in
  let seed = match !seed with Some s -> s | None -> int_of_float (num config_path "default_seed" config) in
  let rate kind = num config_path kind (member config_path "rate_per_s" config) in
  let golden = Scen.load_golden (Filename.concat !dir "golden_cycles.txt") in
  let traced = !trace = 1 in
  let machine_name =
    match !workload with
    | "compile-raw16" -> "raw16"
    | "compile-vliw4" -> "vliw4"
    | w -> fail "unknown workload %S" w
  in
  let root = ".perfbench_tmp" in
  let scratch = Filename.concat root (string_of_int (Unix.getpid ())) in
  mkdir_p scratch;
  let correct, attempted, failed, metrics =
    Fun.protect
      ~finally:(fun () ->
        Proc.rm_rf scratch;
        try Unix.rmdir root with Unix.Unix_error _ -> ())
      (fun () ->
        let seconds = !seconds in
        (* A traced run decomposes the in-process pipeline over the
           workload's regions, then times the service path with one fleet
           stage: fresh jobs on vliw4, cache hits on raw16 — so every
           layer is measured on every workload. *)
        let traced_run machine_name =
          let kind, rate_key =
            if machine_name = "vliw4" then (Fleet.Fresh, "fresh") else (Fleet.Repeat, "repeat")
          in
          let ok1, a1, f1, m1 =
            Compile.layers ~golden ~seconds (Array.of_list (Scen.suite machine_name))
          in
          let ok2, a2, f2, m2 =
            Fleet.run kind ~csched:!csched ~scratch ~seed ~seconds ~rate:(rate rate_key)
          in
          (ok1 && ok2, a1 + a2, f1 + f2, m1 @ m2)
        in
        if traced then traced_run machine_name
        else Compile.untraced ~machine_name ~golden ~seed ~seconds)
  in
  let want = spec_metrics !spec (if traced then "per_layer" else "end_to_end") in
  List.iter
    (fun (m : Benchlib.metric) ->
      match List.assoc_opt m.name want with
      | Some u when u = m.unit_ -> ()
      | Some u -> fail "%s has unit %s, the spec says %s" m.name m.unit_ u
      | None -> fail "%s is not in the spec" m.name)
    metrics;
  let json = Benchlib.result_json ~correct ~attempted ~failed metrics in
  match Benchlib.check_result ~expected:(List.map fst want) json with
  | Ok () -> print_endline (Json.to_string json)
  | Error e -> fail "result breaks the contract: %s" e
