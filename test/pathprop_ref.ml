(* PATHPROP as it was written before its confidence cache and before
   it took [Weights.claim_order]: the visited rows, listed in ascending
   id, are ordered by [Array.stable_sort] on descending confidence, so
   ties keep ascending ids; every walk step recomputes each candidate's
   confidence, and each source's. *)

module W = Cs_core.Weights

let walk ctx w ~blend_keep ~source ~conf_source ~step_targets =
  let graph = Cs_core.Context.graph ctx in
  let rec go cur =
    let next =
      List.fold_left
        (fun acc s ->
          let conf_s = W.confidence w s in
          if conf_s < conf_source then
            match acc with
            | Some (bc, _) when bc <= conf_s -> acc
            | Some _ | None -> Some (conf_s, s)
          else acc)
        None (step_targets graph cur)
    in
    match next with
    | None -> ()
    | Some (_, s) ->
      W.blend w ~dst:s ~src:source ~keep:(1.0 -. blend_keep);
      go s
  in
  go source

let apply ~confidence_threshold ~blend_keep ctx w =
  let conf = Array.init (W.n w) (W.confidence w) in
  let order =
    List.init (W.n w) Fun.id
    |> List.filter (fun i -> conf.(i) >= confidence_threshold && conf.(i) < W.confidence_sentinel)
    |> Array.of_list
  in
  Array.stable_sort (fun a b -> Float.compare conf.(b) conf.(a)) order;
  Array.iter
    (fun ih ->
      let conf_source = W.confidence w ih in
      walk ctx w ~blend_keep ~source:ih ~conf_source ~step_targets:Cs_ddg.Graph.succs;
      walk ctx w ~blend_keep ~source:ih ~conf_source ~step_targets:Cs_ddg.Graph.preds)
    order
