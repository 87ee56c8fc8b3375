type mode =
  | Nearest
  | Weighted

let apply ~mode ctx w =
  let a = ctx.Context.analysis in
  let graph = Context.graph ctx in
  let far = Cs_ddg.Graph.n graph + 1 in
  (* With no preplacement at all the pass carries no information; with
     some, a cluster that owns no anchors behaves as if its closest
     anchor were infinitely far (the paper's 1/dist with dist = inf),
     which we clamp to [far]. *)
  if Context.any_preplacement ctx then begin
    let n = Weights.n w and nc = Weights.nc w in
    (* Gather every per-(instruction, cluster) factor first, then write
       each row once with a single fused sweep instead of touching it
       [nc] times from inside the cluster loop. *)
    let factors = Array.make_matrix n nc 1.0 in
    Array.iteri
      (fun c sources ->
        match mode with
        | Nearest ->
          let dist =
            if sources = [] then Array.make n max_int
            else Cs_ddg.Analysis.multi_source_distance a ~sources
          in
          for i = 0 to n - 1 do
            let d = if dist.(i) = max_int then far else Int.max 1 dist.(i) in
            factors.(i).(c) <- 1.0 /. float_of_int d
          done
        | Weighted ->
          (* Sum of 1/d^2 over all of c's anchors: an instruction
             surrounded by several bank-c anchors is pulled harder than
             one merely adjacent to a single anchor, so stencil interior
             nodes follow the majority bank instead of tying. *)
          let pull = Array.make n 0.0 in
          List.iter
            (fun anchor ->
              let row = Cs_ddg.Analysis.distance_row a anchor in
              for i = 0 to n - 1 do
                let d = if row.(i) = max_int then far else Int.max 1 row.(i) in
                pull.(i) <- pull.(i) +. (1.0 /. float_of_int (d * d))
              done)
            sources;
          for i = 0 to n - 1 do
            factors.(i).(c) <- 1e-6 +. pull.(i)
          done)
      ctx.Context.preplaced_on;
    for i = 0 to n - 1 do
      if not (Cs_ddg.Instr.is_preplaced (Cs_ddg.Graph.instr graph i)) then
        Weights.scale_clusters w i factors.(i)
    done
  end

let weighted = Pass.bool "weighted" ~default:false

let decl =
  Pass.declare ~name:"PLACEPROP" ~kind:Pass.Space [ weighted ] (fun args ->
      apply ~mode:(if Pass.get_bool args weighted then Weighted else Nearest))

let pass ?mode () =
  Pass.build decl [ Pass.set_bool weighted (Option.map (fun m -> m = Weighted) mode) ]
