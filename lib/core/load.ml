let apply (_ : Context.t) w =
  let nc = Weights.nc w in
  let load = Array.make nc 0.0 in
  (* Each row's marginals added in ascending cluster order, unboxed: a
     weight of 1.0 adds the marginal itself. *)
  for i = 0 to Weights.n w - 1 do
    Weights.add_cluster_marginals w i ~weight:1.0 ~into:load ~at:0
  done;
  let factors = Array.make nc 1.0 in
  for c = 0 to nc - 1 do
    if load.(c) > 0.0 then factors.(c) <- 1.0 /. load.(c)
  done;
  (* One fused sweep per row; unloaded clusters keep factor 1.0, which
     the kernel treats as a no-op exactly like the old skipped write. *)
  for i = 0 to Weights.n w - 1 do
    Weights.scale_clusters w i factors
  done

let decl = Pass.declare ~name:"LOAD" ~kind:Pass.Space [] (fun _ -> apply)
let pass () = Pass.build decl []
