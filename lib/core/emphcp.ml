let apply ~factor ctx w =
  let a = ctx.Context.analysis in
  for i = 0 to Weights.n w - 1 do
    let slot = Context.clamp_slot ctx (Cs_ddg.Analysis.earliest a i) in
    Weights.scale_time w i slot factor
  done

(* Scaling one slot of every cluster cannot empty a home lane alone: a
   row left all zero is reset to uniform. So 0 is in the domain. *)
let factor = Pass.float "factor" ~default:1.2 ~domain:(0.0, Pass.factor_max) ~tune:(1.0, 8.0)

let decl =
  Pass.declare ~name:"EMPHCP" ~kind:Pass.Time [ factor ] (fun args ->
      apply ~factor:(Pass.get args factor))

let pass ?factor:f () = Pass.build decl [ Pass.set factor f ]
