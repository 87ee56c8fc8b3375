let apply ~amplitude ctx w =
  let mean = 1.0 /. float_of_int (Weights.nc w * Weights.nt w) in
  let bound = amplitude *. mean in
  let rng = ctx.Context.rng in
  for i = 0 to Weights.n w - 1 do
    (* Only perturb feasible slots: zeroed slots stay zero so NOISE
       cannot undo INITTIME. *)
    Weights.add_noise w i rng bound
  done

(* Noise only raises positive entries, so any amplitude from 0 up is
   safe; the cap keeps a row's sum finite. *)
let amplitude =
  Pass.float "amplitude" ~default:1.0 ~domain:(0.0, Pass.factor_max) ~tune:(0.1, 4.0)

let decl =
  Pass.declare ~name:"NOISE" ~kind:Pass.Space [ amplitude ] (fun args ->
      apply ~amplitude:(Pass.get args amplitude))

let pass ?amplitude:v () = Pass.build decl [ Pass.set amplitude v ]
