type kind = Space | Time | Spacetime

type typ = Bool | Int | Float

type param = {
  key : string;
  typ : typ;
  default : float;
  domain : float * float;
  tune : float * float;
  log_scale : bool;
}

type decl = {
  name : string;
  kind : kind;
  params : param list;
  build : (string * float) list -> Context.t -> Weights.t -> unit;
}

type t = {
  name : string;
  kind : kind;
  params : (string * float) list;
  apply : Context.t -> Weights.t -> unit;
}

let make ~name ~kind apply = { name; kind; params = []; apply }

let param t key = List.assoc_opt key t.params

let bool key ~default =
  { key; typ = Bool; default = (if default then 1.0 else 0.0); domain = (0.0, 1.0);
    tune = (0.0, 1.0); log_scale = false }

let int key ~default ~domain:(lo, hi) ~tune:(tlo, thi) =
  { key; typ = Int; default = float_of_int default;
    domain = (float_of_int lo, float_of_int hi);
    tune = (float_of_int tlo, float_of_int thi); log_scale = false }

let float ?(log_scale = false) key ~default ~domain ~tune =
  { key; typ = Float; default; domain; tune; log_scale }

let factor_max = 1e6
let factor_domain = (1e-6, factor_max)
let confidence_domain = (1.0, Float.max_float)
let int_cap = 1 lsl 30

(* [%.12g] prints every bound we declare exactly. *)
let num = Printf.sprintf "%.12g"

(* Why [v] is no value of [p], if it is not. *)
let problem pass p v =
  let lo, hi = p.domain in
  let refuse why = Some (Printf.sprintf "%s: parameter %s=%s %s" pass p.key (num v) why) in
  if not (Float.is_finite v) then refuse "is not finite"
  else
    match p.typ with
    | Bool when v <> 0.0 && v <> 1.0 -> refuse "is not a boolean (want 0 or 1)"
    | Int when not (Float.is_integer v) -> refuse "is not an integer"
    | _ when v < lo || v > hi ->
      refuse (Printf.sprintf "is out of range (want %s <= %s <= %s)" (num lo) p.key (num hi))
    | _ -> None

let declare ~name ~kind params build = { name; kind; params; build }

let get args p = List.assoc p.key args
let get_int args p = int_of_float (get args p)
let get_bool args p = get args p <> 0.0

let defaults (d : decl) = List.map (fun p -> (p.key, p.default)) d.params

let instantiate (d : decl) kvs =
  let problem (k, v) =
    match List.find_opt (fun p -> p.key = k) d.params with
    | None ->
      Some
        (Printf.sprintf "%s: unknown parameter %S (available: %s)" d.name k
           (String.concat ", " (List.map (fun p -> p.key) d.params)))
    | Some _ when List.length (List.filter (fun (k', _) -> k' = k) kvs) > 1 ->
      Some (Printf.sprintf "%s: parameter %s given twice" d.name k)
    | Some p -> problem d.name p v
  in
  match List.find_map problem kvs with
  | Some msg -> Error msg
  | None ->
    (* [+. 0.0] turns a [-0.] into [+0.]: the matrix kernels treat only
       [+0.] as an empty entry. *)
    let value p = match List.assoc_opt p.key kvs with Some v -> v +. 0.0 | None -> p.default in
    let params = List.map (fun p -> (p.key, value p)) d.params in
    Ok ({ name = d.name; kind = d.kind; params; apply = d.build params } : t)

let set p v = Option.map (fun v -> (p.key, v)) v
let set_int p v = set p (Option.map float_of_int v)
let set_bool p v = set p (Option.map (fun b -> if b then 1.0 else 0.0) v)

let build d overrides =
  match instantiate d (List.filter_map Fun.id overrides) with
  | Ok t -> t
  | Error msg -> invalid_arg msg
