let apply ~amplitude ctx w =
  let mean = 1.0 /. float_of_int (Weights.nc w * Weights.nt w) in
  let bound = amplitude *. mean in
  let rng = ctx.Context.rng in
  for i = 0 to Weights.n w - 1 do
    (* Only perturb feasible slots: zeroed slots stay zero so NOISE
       cannot undo INITTIME. *)
    Weights.add_noise w i rng bound
  done

let pass ?(amplitude = 1.0) () =
  Pass.make ~params:[ ("amplitude", amplitude) ] ~name:"NOISE" ~kind:Pass.Space
    (apply ~amplitude)
