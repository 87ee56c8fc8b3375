(* [conf] caches every row's current confidence. Only [blend] writes
   during the pass, and each blend into [s] is followed by a refresh of
   [conf.(s)], so the cache never goes stale. Among the step targets
   less confident than the source, the first least confident one is
   next: [pick] keeps its index and reads its confidence back from
   [conf], so no float is boxed along the way. *)
let rec pick (conf : float array) (conf_source : float) next = function
  | [] -> next
  | s :: rest ->
    let conf_s = conf.(s) in
    let next = if conf_s < conf_source && (next < 0 || conf.(next) > conf_s) then s else next in
    pick conf conf_source next rest

let walk ctx w conf ~keep ~source ~conf_source ~step_targets =
  let graph = Context.graph ctx in
  let rec go cur =
    let s = pick conf conf_source (-1) (step_targets graph cur) in
    if s >= 0 then begin
      Weights.blend w ~dst:s ~src:source ~keep;
      conf.(s) <- Weights.confidence w s;
      go s
    end
  in
  go source

let apply ~confidence_threshold ~blend_keep ctx w =
  (* Visit confident instructions from most to least confident.
     Rows with no runner-up report [confidence_sentinel] (the old code
     saw [infinity] and dropped them via [Float.is_finite]); excluding
     the sentinel keeps them out of the walk exactly as before. The
     order is fixed by the confidences at the start of the pass. *)
  let conf = Array.init (Weights.n w) (Weights.confidence w) in
  let order =
    List.init (Weights.n w) (fun i -> i)
    |> List.filter (fun i ->
           conf.(i) >= confidence_threshold
           && conf.(i) < Weights.confidence_sentinel)
    |> List.sort (fun a b -> Float.compare conf.(b) conf.(a))
  in
  let keep = 1.0 -. blend_keep in
  List.iter
    (fun ih ->
      let conf_source = conf.(ih) in
      walk ctx w conf ~keep ~source:ih ~conf_source ~step_targets:Cs_ddg.Graph.succs;
      walk ctx w conf ~keep ~source:ih ~conf_source ~step_targets:Cs_ddg.Graph.preds)
    order

(* [Weights.blend] refuses [keep = 1 - blend_keep] outside [0, 1]. *)
let confidence_threshold =
  Pass.float "confidence_threshold" ~default:1.5
    ~domain:Pass.confidence_domain ~tune:(1.0, 4.0)

let blend_keep = Pass.float "blend_keep" ~default:0.5 ~domain:(0.0, 1.0) ~tune:(0.05, 0.95)

let decl =
  Pass.declare ~name:"PATHPROP" ~kind:Pass.Space [ confidence_threshold; blend_keep ]
    (fun args ->
      apply ~confidence_threshold:(Pass.get args confidence_threshold)
        ~blend_keep:(Pass.get args blend_keep))

let pass ?confidence_threshold:c ?blend_keep:b () =
  Pass.build decl [ Pass.set confidence_threshold c; Pass.set blend_keep b ]
