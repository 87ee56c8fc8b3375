(* DSC-style chain grouping: walk in topological order and merge each
   instruction with the predecessor that determines its ASAP time (its
   critical incoming edge) — the same clustering Rawcc's first phase
   performs — refusing merges that would join different preplacement
   homes. *)
let build_groups ctx =
  let graph = Context.graph ctx in
  let a = ctx.Context.analysis in
  let n = Cs_ddg.Graph.n graph in
  let uf = Cs_util.Union_find.create n in
  let pin = Array.make n None in
  for i = 0 to n - 1 do
    pin.(i) <- Context.home_of ctx i
  done;
  let pin_of i = pin.(Cs_util.Union_find.find uf i) in
  let merge p i =
    match (pin_of p, pin_of i) with
    | Some a, Some b when a <> b -> ()
    | pa, pb ->
      let keep = match (pa, pb) with Some c, _ | _, Some c -> Some c | None, None -> None in
      let root = Cs_util.Union_find.union uf p i in
      pin.(root) <- keep
  in
  Array.iter
    (fun i ->
      let critical_pred =
        List.fold_left
          (fun acc p ->
            let arrives = Cs_ddg.Analysis.earliest a p + Cs_ddg.Analysis.latency a p in
            if arrives = Cs_ddg.Analysis.earliest a i then
              match acc with
              | Some q when Cs_ddg.Analysis.height a q >= Cs_ddg.Analysis.height a p -> acc
              | Some _ | None -> Some p
            else acc)
          None (Cs_ddg.Graph.preds graph i)
      in
      match critical_pred with Some p -> merge p i | None -> ())
    (Cs_ddg.Graph.topo_order graph);
  let tbl = Cs_util.Union_find.groups uf in
  Hashtbl.fold (fun _ members acc -> if List.length members >= 2 then members :: acc else acc)
    tbl []
  |> List.sort compare

let groups ctx = build_groups ctx

let apply ~boost ctx w =
  let nc = Weights.nc w in
  List.iter
    (fun members ->
      (* Consensus: the cluster carrying the group's summed marginal
         preference; every member is pulled there. *)
      let best = ref 0 and best_weight = ref neg_infinity in
      for c = 0 to nc - 1 do
        let total =
          List.fold_left (fun acc m -> acc +. Weights.cluster_weight w m c) 0.0 members
        in
        if total > !best_weight then begin
          best := c;
          best_weight := total
        end
      done;
      List.iter (fun m -> Weights.scale_cluster w m !best boost) members)
    (build_groups ctx)

(* The consensus cluster may be a member's home: the boost stays positive. *)
let boost = Pass.float "boost" ~default:2.0 ~domain:Pass.factor_domain ~tune:(1.0, 8.0)

let decl =
  Pass.declare ~name:"CLUSTER" ~kind:Pass.Space [ boost ] (fun args ->
      apply ~boost:(Pass.get args boost))

let pass ?boost:b () = Pass.build decl [ Pass.set boost b ]
