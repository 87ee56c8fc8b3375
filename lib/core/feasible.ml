let apply ctx w =
  let graph = Context.graph ctx in
  let machine = ctx.Context.machine in
  let nc = Weights.nc w in
  let factors = Array.make nc 1.0 in
  for i = 0 to Weights.n w - 1 do
    let op = (Cs_ddg.Graph.instr graph i).Cs_ddg.Instr.op in
    let any_infeasible = ref false in
    for c = 0 to nc - 1 do
      if Cs_machine.Machine.can_execute machine ~cluster:c op then
        factors.(c) <- 1.0
      else begin
        factors.(c) <- 0.0;
        any_infeasible := true
      end
    done;
    (* Rows that are feasible everywhere are skipped entirely, so the
       common all-alive machine leaves the touched set empty. *)
    if !any_infeasible then Weights.scale_clusters w i factors
  done

let decl = Pass.declare ~name:"FEASIBLE" ~kind:Pass.Space [] (fun _ -> apply)
let pass () = Pass.build decl []
