let raw_default () =
  [ Inittime.pass (); Placeprop.pass (); Load.pass (); Place.pass (); Path.pass ();
    Pathprop.pass (); Level.pass ~stride:4 (); Pathprop.pass (); Comm.pass ();
    Pathprop.pass (); Emphcp.pass () ]

let vliw_default () =
  [ Inittime.pass (); Noise.pass (); First.pass (); Path.pass (); Load.pass ();
    Comm.pass (); Place.pass (); Placeprop.pass (); Load.pass (); Comm.pass ();
    Emphcp.pass () ]

let registry =
  [ Inittime.decl; Noise.decl; Place.decl; First.decl; Path.decl; Comm.decl; Placeprop.decl;
    Load.decl; Level.decl; Pathprop.decl; Emphcp.decl; Feasible.decl; Regpress.decl;
    Cluster.decl; Chaos.decl ]

let available = List.map (fun (d : Pass.decl) -> d.name) registry

let find name =
  let upper = String.uppercase_ascii name in
  List.find_opt (fun (d : Pass.decl) -> d.name = upper) registry

let of_name name = Option.map (fun d -> Pass.build d []) (find name)

(* [%.12g] keeps every parameter we produce (defaults, halvings,
   doublings, small perturbations) exact through a round trip while
   printing integers as integers. A value with more significant digits,
   such as one typed on a command line, takes the fewest digits beyond
   12 that read back as the same float (at most 17). *)
let float_to_string v =
  let rec digits p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else digits (p + 1)
  in
  digits 12

let to_spec ?(full = false) (pass : Pass.t) =
  let defaults = match find pass.name with Some d -> Pass.defaults d | None -> [] in
  let shown =
    List.filter (fun kv -> full || not (List.mem kv defaults)) pass.params
  in
  if shown = [] then pass.name
  else
    pass.name ^ "="
    ^ String.concat ":" (List.map (fun (k, v) -> k ^ "=" ^ float_to_string v) shown)

let of_spec spec =
  let spec = String.trim spec in
  let name, param_str =
    match String.index_opt spec '=' with
    | None -> (spec, None)
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
  in
  match find name with
  | None ->
    Error
      (Printf.sprintf "unknown pass %S (available: %s)" name (String.concat ", " available))
  | Some decl ->
    let parse_param kv =
      match String.index_opt kv '=' with
      | None ->
        Error (Printf.sprintf "%s: malformed parameter %S (want key=value)" decl.name kv)
      | Some i ->
        let k = String.lowercase_ascii (String.trim (String.sub kv 0 i)) in
        let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        (match float_of_string_opt v with
        | None -> Error (Printf.sprintf "%s: parameter %s=%S is not a number" decl.name k v)
        | Some fv -> Ok (k, fv))
    in
    let rec parse_all acc = function
      | [] -> Pass.instantiate decl (List.rev acc)
      | kv :: rest -> Result.bind (parse_param kv) (fun p -> parse_all (p :: acc) rest)
    in
    parse_all [] (match param_str with None -> [] | Some s -> String.split_on_char ':' s)

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
