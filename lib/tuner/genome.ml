type gene = { pass : string; params : (string * float) list }
type t = gene list

let min_length = 2
let max_length = 16

let gene_pool =
  (* CHAOS is the fault-injection pass: valid to parse and replay, but
     never worth searching over. *)
  List.filter (fun n -> n <> "INITTIME" && n <> "CHAOS") Cs_core.Sequence.available

let decl_of name =
  match Cs_core.Sequence.find name with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Genome: unknown pass %S" name)

let default_gene name =
  let d = decl_of name in
  { pass = d.Cs_core.Pass.name; params = Cs_core.Pass.defaults d }

let of_passes passes =
  List.map (fun p -> { pass = p.Cs_core.Pass.name; params = p.Cs_core.Pass.params }) passes

let of_machine machine =
  of_passes
    (if Cs_machine.Machine.is_mesh machine then Cs_core.Sequence.raw_default ()
     else Cs_core.Sequence.vliw_default ())

let gene_to_string g =
  if g.params = [] then g.pass
  else
    g.pass ^ "="
    ^ String.concat ":"
        (List.map (fun (k, v) -> Printf.sprintf "%s=%.12g" k v) g.params)

let to_string t = String.concat "," (List.map gene_to_string t)

let to_passes t =
  Cs_core.Sequence.of_names (List.map gene_to_string t)

let of_string s =
  let tokens = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest ->
      (match Cs_core.Sequence.of_spec tok with
      | Ok p -> go ({ pass = p.Cs_core.Pass.name; params = p.Cs_core.Pass.params } :: acc) rest
      | Error _ as e -> e)
  in
  match go [] tokens with
  | Error _ as e -> e
  | Ok genes ->
    let n = List.length genes in
    if n < min_length || n > max_length then
      Error
        (Printf.sprintf "genome length %d outside tuner bounds [%d, %d]" n min_length
           max_length)
    else Ok genes

let equal a b = to_string a = to_string b
let compare_canonical a b = String.compare (to_string a) (to_string b)

(* --- parameter perturbation, within each parameter's declared tuning
   range (Cs_core.Pass.param.tune) --- *)

(* Quantize to 6 significant digits so canonical strings round-trip
   exactly (%.12g then prints every stored value losslessly). *)
let quantize v = float_of_string (Printf.sprintf "%.6g" v)

let clampf lo hi v = Float.min hi (Float.max lo v)

let perturb_value rng (p : Cs_core.Pass.param) v =
  let lo, hi = p.tune in
  match p.typ with
  | Bool -> if v <> 0.0 then 0.0 else 1.0
  | Int ->
    let step = Cs_util.Rng.choose rng [| -2; -1; 1; 2 |] in
    float_of_int (max (int_of_float lo) (min (int_of_float hi) (int_of_float v + step)))
  | Float when p.log_scale ->
    let scale = Float.pow 10.0 (Cs_util.Rng.float rng 2.0 -. 1.0) in
    quantize (clampf lo hi (v *. scale))
  | Float ->
    (* multiplicative jitter in [0.6, 1.6], occasionally a fresh draw *)
    if Cs_util.Rng.float rng 1.0 < 0.15 then
      quantize (lo +. Cs_util.Rng.float rng (hi -. lo))
    else quantize (clampf lo hi (v *. (0.6 +. Cs_util.Rng.float rng 1.0)))

let perturb_param rng g (k, v) =
  let p = List.find (fun p -> p.Cs_core.Pass.key = k) (decl_of g.pass).Cs_core.Pass.params in
  (k, perturb_value rng p v)

let jitter_gene rng g =
  let params =
    List.map (fun kv -> if Cs_util.Rng.bool rng then perturb_param rng g kv else kv) g.params
  in
  { g with params }

let random_gene rng =
  let name = Cs_util.Rng.choose rng (Array.of_list gene_pool) in
  jitter_gene rng (default_gene name)

(* --- mutation --- *)

(* The leading INITTIME (when present) is pinned: every Table 1 sequence
   starts with it and removing it leaves the time axis unconverged. *)
let head_start t = match t with { pass = "INITTIME"; _ } :: _ -> 1 | _ -> 0

let mutate rng t =
  let arr = Array.of_list t in
  let n = Array.length arr in
  let start = head_start t in
  let movable = n - start in
  let with_params =
    List.filter (fun i -> arr.(i).params <> []) (List.init movable (fun i -> i + start))
  in
  let ops =
    List.concat
      [ (if with_params <> [] then [ `Perturb ] else []);
        (if n < max_length then [ `Insert ] else []);
        (if movable > 1 && n > min_length then [ `Delete ] else []);
        (if movable > 1 then [ `Swap ] else []) ]
  in
  if ops = [] then t
  else
    match Cs_util.Rng.choose rng (Array.of_list ops) with
    | `Perturb ->
      let i = List.nth with_params (Cs_util.Rng.int rng (List.length with_params)) in
      let g = arr.(i) in
      let pi = Cs_util.Rng.int rng (List.length g.params) in
      let params =
        List.mapi (fun j kv -> if j = pi then perturb_param rng g kv else kv) g.params
      in
      arr.(i) <- { g with params };
      Array.to_list arr
    | `Insert ->
      let pos = start + Cs_util.Rng.int rng (movable + 1) in
      let g = random_gene rng in
      let l = Array.to_list arr in
      let rec ins i = function
        | rest when i = 0 -> g :: rest
        | x :: rest -> x :: ins (i - 1) rest
        | [] -> [ g ]
      in
      ins pos l
    | `Delete ->
      let pos = start + Cs_util.Rng.int rng movable in
      List.filteri (fun i _ -> i <> pos) (Array.to_list arr)
    | `Swap ->
      let i = start + Cs_util.Rng.int rng movable in
      let j = start + Cs_util.Rng.int rng movable in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      Array.to_list arr

(* --- crossover --- *)

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let crossover rng a b =
  let la = List.length a and lb = List.length b in
  let start = max (head_start a) (head_start b) in
  if la <= start || lb <= start then a
  else
    let rec attempt tries =
      if tries = 0 then a
      else
        let cut1 = start + Cs_util.Rng.int rng (la - start + 1) in
        let cut2 = start + Cs_util.Rng.int rng (lb - start + 1) in
        let len = cut1 + (lb - cut2) in
        if len >= min_length && len <= max_length then take cut1 a @ drop cut2 b
        else attempt (tries - 1)
    in
    attempt 8

(* --- random genomes (fuzzing) --- *)

let random ?(max_mutations = 8) rng machine =
  let g = ref (of_machine machine) in
  for _ = 1 to Cs_util.Rng.int rng (max_mutations + 1) do
    g := mutate rng !g
  done;
  !g
