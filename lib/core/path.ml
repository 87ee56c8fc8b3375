let least_loaded_cluster w =
  let nc = Weights.nc w in
  (* One row-major sweep over the cluster-marginal cache (it is stored
     instr-major, so the old cluster-outer loop walked it with stride
     [nc]); per-cluster partial sums still accumulate in ascending
     instruction order, so the totals are bit-identical. *)
  let load = Array.make nc 0.0 in
  for i = 0 to Weights.n w - 1 do
    for c = 0 to nc - 1 do
      load.(c) <- load.(c) +. Weights.cluster_weight w i c
    done
  done;
  let best = ref 0 in
  for c = 1 to nc - 1 do
    if load.(c) < load.(!best) then best := c
  done;
  !best

let apply ~boost ~confidence_threshold ctx w =
  let path = Array.of_list (Cs_ddg.Analysis.critical_path ctx.Context.analysis) in
  let len = Array.length path in
  if len > 0 then begin
    (* Anchors: positions on the path with a hard home or a confident
       existing preference. *)
    let anchors = ref [] in
    Array.iteri
      (fun pos i ->
        match Context.home_of ctx i with
        | Some c -> anchors := (pos, c) :: !anchors
        | None ->
          if Weights.confidence w i >= confidence_threshold then
            anchors := (pos, Weights.preferred_cluster w i) :: !anchors)
      path;
    let anchors = List.rev !anchors in
    let cluster_for_pos pos =
      match anchors with
      | [] -> None
      | _ ->
        (* Nearest anchor by path-position distance; earlier anchor wins ties. *)
        let best =
          List.fold_left
            (fun acc (apos, c) ->
              let d = abs (apos - pos) in
              match acc with
              | Some (bd, _) when bd <= d -> acc
              | Some _ | None -> Some (d, c))
            None anchors
        in
        Option.map snd best
    in
    let fallback = lazy (least_loaded_cluster w) in
    Array.iteri
      (fun pos i ->
        let target =
          match cluster_for_pos pos with Some c -> c | None -> Lazy.force fallback
        in
        Weights.scale_cluster w i target boost)
      path
  end

(* The target cluster may be a preplaced row's home: the boost stays
   positive. *)
let boost = Pass.float "boost" ~default:3.0 ~domain:Pass.factor_domain ~tune:(1.0, 8.0)

let confidence_threshold =
  Pass.float "confidence_threshold" ~default:2.0
    ~domain:Pass.confidence_domain ~tune:(1.0, 4.0)

let decl =
  Pass.declare ~name:"PATH" ~kind:Pass.Space [ boost; confidence_threshold ] (fun args ->
      apply ~boost:(Pass.get args boost)
        ~confidence_threshold:(Pass.get args confidence_threshold))

let pass ?boost:b ?confidence_threshold:c () =
  Pass.build decl [ Pass.set boost b; Pass.set confidence_threshold c ]
