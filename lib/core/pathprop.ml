(* [conf] caches every row's current confidence. Only [blend] writes
   during the pass, and each blend into [s] is followed by a refresh of
   [conf.(s)], so the cache never goes stale. Among the step targets
   less confident than the source, the first least confident one is
   next: [pick] keeps its index and reads its confidence back from
   [conf], and the source's confidence from [src.(0)], so no float is
   boxed along the way. *)
let rec pick (conf : float array) (src : float array) next = function
  | [] -> next
  | s :: rest ->
    let conf_s = conf.(s) in
    let next = if conf_s < src.(0) && (next < 0 || conf.(next) > conf_s) then s else next in
    pick conf src next rest

(* A plain recursion with no float argument, so a walk allocates
   nothing. *)
let rec walk graph w conf src ~keep ~source ~step_targets cur =
  let s = pick conf src (-1) (step_targets graph cur) in
  if s >= 0 then begin
    Weights.blend w ~dst:s ~src:source ~keep;
    Weights.confidence_into w s conf;
    walk graph w conf src ~keep ~source ~step_targets s
  end

let apply ~confidence_threshold ~blend_keep ctx w =
  (* Visit confident instructions from most to least confident.
     Rows with no runner-up report [confidence_sentinel] (the old code
     saw [infinity] and dropped them via [Float.is_finite]); excluding
     the sentinel keeps them out of the walk exactly as before. The
     order is fixed by the confidences at the start of the pass:
     descending confidence, ties to the lower id, which is
     [Weights.claim_order]. *)
  let n = Weights.n w in
  let conf = Array.make n 0.0 in
  Weights.confidences w conf;
  let visited =
    Array.init n (fun i ->
        conf.(i) >= confidence_threshold && conf.(i) < Weights.confidence_sentinel)
  in
  let order = Weights.claim_order conf visited in
  let keep = 1.0 -. blend_keep and graph = Context.graph ctx and src = [| 0.0 |] in
  Array.iter
    (fun ih ->
      src.(0) <- conf.(ih);
      walk graph w conf src ~keep ~source:ih ~step_targets:Cs_ddg.Graph.succs ih;
      walk graph w conf src ~keep ~source:ih ~step_targets:Cs_ddg.Graph.preds ih)
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
