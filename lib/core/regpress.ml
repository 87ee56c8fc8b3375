(* Peak pressure estimate: a value defined by instruction [d] assigned to
   cluster [c] is live from [d]'s preferred slot until the latest preferred
   slot among its consumers; pressure(c, t) counts live values. *)
let peak_pressure ctx w =
  let graph = Context.graph ctx in
  let nc = Weights.nc w and nt = Weights.nt w in
  let pressure = Array.make_matrix nc nt 0 in
  for d = 0 to Weights.n w - 1 do
    let ins = Cs_ddg.Graph.instr graph d in
    if ins.Cs_ddg.Instr.dst <> None then begin
      let c = Weights.preferred_cluster w d in
      let birth = Weights.preferred_time w d in
      let death =
        List.fold_left
          (fun acc s -> Int.max acc (Weights.preferred_time w s))
          birth
          (Cs_ddg.Graph.succs graph d)
      in
      for t = birth to Int.min death (nt - 1) do
        pressure.(c).(t) <- pressure.(c).(t) + 1
      done
    end
  done;
  Array.map (fun row -> Array.fold_left Int.max 0 row) pressure

let apply ~registers_per_cluster ~confidence_threshold ctx w =
  let peaks = peak_pressure ctx w in
  let graph = Context.graph ctx in
  let cap = float_of_int registers_per_cluster in
  Array.iteri
    (fun c peak ->
      let peak = float_of_int peak in
      if peak > cap then begin
        let relief = cap /. peak in
        for i = 0 to Weights.n w - 1 do
          let movable =
            (not (Cs_ddg.Instr.is_preplaced (Cs_ddg.Graph.instr graph i)))
            && Weights.confidence w i < confidence_threshold
          in
          if movable && Weights.preferred_cluster w i = c then
            Weights.scale_cluster w i c relief
        done
      end)
    peaks

(* A negative register file would make the relief factor negative. *)
let registers_per_cluster =
  Pass.int "registers_per_cluster" ~default:32 ~domain:(1, Pass.int_cap) ~tune:(4, 64)

let confidence_threshold =
  Pass.float "confidence_threshold" ~default:2.0
    ~domain:Pass.confidence_domain ~tune:(1.0, 4.0)

let decl =
  Pass.declare ~name:"REGPRESS" ~kind:Pass.Space
    [ registers_per_cluster; confidence_threshold ]
    (fun args ->
      apply ~registers_per_cluster:(Pass.get_int args registers_per_cluster)
        ~confidence_threshold:(Pass.get args confidence_threshold))

let pass ?registers_per_cluster:r ?confidence_threshold:c () =
  Pass.build decl [ Pass.set_int registers_per_cluster r; Pass.set confidence_threshold c ]
