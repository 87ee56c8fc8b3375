let apply ~factor (_ : Context.t) w =
  for i = 0 to Weights.n w - 1 do
    Weights.scale_cluster w i 0 factor
  done

(* Cluster 0 may be a preplaced row's home: the factor stays positive. *)
let factor = Pass.float "factor" ~default:1.2 ~domain:Pass.factor_domain ~tune:(1.0, 8.0)

let decl =
  Pass.declare ~name:"FIRST" ~kind:Pass.Space [ factor ] (fun args ->
      apply ~factor:(Pass.get args factor))

let pass ?factor:f () = Pass.build decl [ Pass.set factor f ]
