let windows ctx =
  let a = ctx.Context.analysis in
  let n = Context.n_instrs ctx in
  ( Array.init n (fun i -> Context.clamp_slot ctx (Cs_ddg.Analysis.earliest a i)),
    Array.init n (fun i -> Context.clamp_slot ctx (Cs_ddg.Analysis.latest a i)) )

let apply ctx w =
  let lo, hi = windows ctx in
  let nt = Weights.nt w in
  for i = 0 to Weights.n w - 1 do
    (* Rows whose mobility window already spans every slot are left
       untouched (and undirtied). *)
    if lo.(i) > 0 || hi.(i) < nt - 1 then Weights.mask_time_window w i ~lo:lo.(i) ~hi:hi.(i)
  done

let decl = Pass.declare ~name:"INITTIME" ~kind:Pass.Time [] (fun _ -> apply)
let pass () = Pass.build decl []
