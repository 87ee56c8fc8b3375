let raw_default () =
  [ Inittime.pass (); Placeprop.pass (); Load.pass (); Place.pass (); Path.pass ();
    Pathprop.pass (); Level.pass ~stride:4 (); Pathprop.pass (); Comm.pass ();
    Pathprop.pass (); Emphcp.pass () ]

let vliw_default () =
  [ Inittime.pass (); Noise.pass (); First.pass (); Path.pass (); Load.pass ();
    Comm.pass (); Place.pass (); Placeprop.pass (); Load.pass (); Comm.pass ();
    Emphcp.pass () ]

(* Builders take a parameter assignment; a missing key falls through to
   the pass module's own default, so defaults are defined in exactly one
   place. Booleans are 0/1, integers are exact floats. *)

let registry : (string * ((string * float) list -> Pass.t)) list =
  let f ps k = List.assoc_opt k ps in
  let fi ps k = Option.map int_of_float (f ps k) in
  let fb ps k = Option.map (fun v -> v <> 0.0) (f ps k) in
  [ ("INITTIME", fun _ -> Inittime.pass ());
    ("NOISE", fun ps -> Noise.pass ?amplitude:(f ps "amplitude") ());
    ("PLACE",
     fun ps -> Place.pass ?factor:(f ps "factor") ?live_in_factor:(f ps "live_in_factor") ());
    ("FIRST", fun ps -> First.pass ?factor:(f ps "factor") ());
    ("PATH",
     fun ps ->
       Path.pass ?boost:(f ps "boost") ?confidence_threshold:(f ps "confidence_threshold") ());
    ("COMM",
     fun ps ->
       Comm.pass ?eps:(f ps "eps") ?grand:(fb ps "grand") ?grand_weight:(f ps "grand_weight")
         ?per_slot:(fb ps "per_slot") ?strengthen_preferred:(f ps "strengthen_preferred") ());
    ("PLACEPROP",
     fun ps ->
       let mode =
         Option.map
           (fun w -> if w then Placeprop.Weighted else Placeprop.Nearest)
           (fb ps "weighted")
       in
       Placeprop.pass ?mode ());
    ("LOAD", fun _ -> Load.pass ());
    ("LEVEL",
     fun ps ->
       Level.pass ?stride:(fi ps "stride") ?granularity:(fi ps "granularity")
         ?confidence_threshold:(f ps "confidence_threshold") ?boost:(f ps "boost") ());
    ("PATHPROP",
     fun ps ->
       Pathprop.pass ?confidence_threshold:(f ps "confidence_threshold")
         ?blend_keep:(f ps "blend_keep") ());
    ("EMPHCP", fun ps -> Emphcp.pass ?factor:(f ps "factor") ());
    ("FEASIBLE", fun _ -> Feasible.pass ());
    ("REGPRESS",
     fun ps ->
       Regpress.pass
         ?registers_per_cluster:(fi ps "registers_per_cluster")
         ?confidence_threshold:(f ps "confidence_threshold") ());
    ("CLUSTER", fun ps -> Cluster.pass ?boost:(f ps "boost") ());
    (* Fault-injection pass; registered so repro files carrying it round
       trip, but excluded from the autotuner's search space. *)
    ("CHAOS", fun ps -> Chaos.pass ?mode:(fi ps "mode") ?delay_ms:(f ps "delay_ms") ()) ]

let available = List.map fst registry

let default_params name =
  List.assoc_opt (String.uppercase_ascii name) registry
  |> Option.map (fun build -> (build []).Pass.params)

let of_name name =
  let upper = String.uppercase_ascii name in
  List.assoc_opt upper registry |> Option.map (fun build -> build [])

(* [%.12g] keeps every parameter we produce (defaults, halvings,
   doublings, small perturbations) exact through a round trip while
   printing integers as integers. *)
let float_to_string v = Printf.sprintf "%.12g" v

let to_spec ?(full = false) pass =
  let defaults =
    match default_params pass.Pass.name with Some d -> d | None -> []
  in
  let shown =
    List.filter
      (fun (k, v) ->
        full || match List.assoc_opt k defaults with Some d -> d <> v | None -> true)
      pass.Pass.params
  in
  if shown = [] then pass.Pass.name
  else
    pass.Pass.name ^ "="
    ^ String.concat ":" (List.map (fun (k, v) -> k ^ "=" ^ float_to_string v) shown)

(* Parameters whose legal range is narrower than "finite", with the
   range as an error message shows it. LEVEL walks depth groups
   [stride] levels at a time: a stride below 1 would never advance, and
   one past [max_int] truncates to garbage. PATHPROP blends with
   [keep = 1 - blend_keep], which [Weights.blend] refuses outside
   [0, 1], so every application would be quarantined on its first
   blend. *)
let param_range pass key =
  match (pass, key) with
  | "LEVEL", "stride" ->
    Some ((fun v -> v >= 1.0 && v < float_of_int max_int), "1 <= stride < 2^62")
  | "PATHPROP", "blend_keep" ->
    Some ((fun v -> v >= 0.0 && v <= 1.0), "0 <= blend_keep <= 1")
  | _ -> None

let of_spec spec =
  let spec = String.trim spec in
  let name, param_str =
    match String.index_opt spec '=' with
    | None -> (spec, None)
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
  in
  let upper = String.uppercase_ascii name in
  match List.assoc_opt upper registry with
  | None ->
    Error
      (Printf.sprintf "unknown pass %S (available: %s)" name (String.concat ", " available))
  | Some build ->
    let valid_keys = List.map fst (build []).Pass.params in
    let parse_param kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "%s: malformed parameter %S (want key=value)" upper kv)
      | Some i ->
        let k = String.lowercase_ascii (String.trim (String.sub kv 0 i)) in
        let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        if not (List.mem k valid_keys) then
          Error
            (Printf.sprintf "%s: unknown parameter %S (available: %s)" upper k
               (String.concat ", " valid_keys))
        else
          (match float_of_string_opt v with
          | None -> Error (Printf.sprintf "%s: parameter %s=%S is not a number" upper k v)
          | Some fv when not (Float.is_finite fv) ->
            Error (Printf.sprintf "%s: parameter %s=%S is not finite" upper k v)
          | Some fv ->
            (match param_range upper k with
            | Some (ok, want) when not (ok fv) ->
              Error
                (Printf.sprintf "%s: parameter %s=%S is out of range (want %s)" upper k v want)
            | _ -> Ok (k, fv)))
    in
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | kv :: rest ->
        (match parse_param kv with
        | Ok p -> parse_all (p :: acc) rest
        | Error _ as e -> e)
    in
    (match param_str with
    | None -> Ok (build [])
    | Some s ->
      (match parse_all [] (String.split_on_char ':' s) with
      | Ok params -> Ok (build params)
      | Error msg -> Error msg))

let of_names specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest ->
      (match of_spec spec with
      | Ok p -> go (p :: acc) rest
      | Error _ as e -> e)
  in
  go [] specs

let names passes = List.map (to_spec ~full:false) passes
