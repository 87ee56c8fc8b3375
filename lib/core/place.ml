let apply ~factor ~live_in_factor ctx w =
  let graph = Context.graph ctx in
  for i = 0 to Weights.n w - 1 do
    let ins = Cs_ddg.Graph.instr graph i in
    match ins.Cs_ddg.Instr.preplace with
    | Some c -> Weights.scale_cluster w i c factor
    | None ->
      (match Context.home_of ctx i with
      | Some c -> Weights.scale_cluster w i c live_in_factor
      | None -> ())
  done

(* [factor] scales a preplaced row's home cluster, so it must stay
   positive. [live_in_factor] only touches rows that are not preplaced,
   where the weights' [>= 0] contract is the whole rule. *)
let factor = Pass.float "factor" ~default:100.0 ~domain:Pass.factor_domain ~tune:(5.0, 500.0)

let live_in_factor =
  Pass.float "live_in_factor" ~default:2.0 ~domain:(0.0, Pass.factor_max) ~tune:(0.5, 8.0)

let decl =
  Pass.declare ~name:"PLACE" ~kind:Pass.Space [ factor; live_in_factor ] (fun args ->
      apply ~factor:(Pass.get args factor) ~live_in_factor:(Pass.get args live_in_factor))

let pass ?factor:f ?live_in_factor:l () =
  Pass.build decl [ Pass.set factor f; Pass.set live_in_factor l ]
