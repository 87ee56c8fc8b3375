let of_slots slots = Array.copy slots

let alap a =
  Array.init (Cs_ddg.Graph.n (Cs_ddg.Analysis.graph a)) (fun i -> Cs_ddg.Analysis.latest a i)

let asap a =
  Array.init (Cs_ddg.Graph.n (Cs_ddg.Analysis.graph a)) (fun i -> Cs_ddg.Analysis.earliest a i)
