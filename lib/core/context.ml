type t = {
  region : Cs_ddg.Region.t;
  machine : Cs_machine.Machine.t;
  analysis : Cs_ddg.Analysis.t;
  rng : Cs_util.Rng.t;
  nt : int;
  preplaced_on : int list array;
}

let graph t = t.region.Cs_ddg.Region.graph
let n_instrs t = Cs_ddg.Graph.n (graph t)
let n_clusters t = Cs_machine.Machine.n_clusters t.machine

let make ?(seed = 42) ?(nt_cap = 512) ~machine region =
  (match Cs_machine.Machine.validate_region machine region with
  | Ok () -> ()
  | Error msg -> Cs_resil.Error.invalid_input ("Context.make: " ^ msg));
  let graph = region.Cs_ddg.Region.graph in
  let analysis =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine) graph
  in
  let nt = Int.max 1 (Int.min (Cs_ddg.Analysis.cpl analysis) nt_cap) in
  let preplaced_on = Array.make (Cs_machine.Machine.n_clusters machine) [] in
  List.iter
    (fun (i, c) -> preplaced_on.(c) <- i :: preplaced_on.(c))
    (List.rev (Cs_ddg.Graph.preplaced graph));
  { region; machine; analysis; rng = Cs_util.Rng.create seed; nt; preplaced_on }

let clamp_slot t slot = Int.max 0 (Int.min (t.nt - 1) slot)

let home_of t i =
  let ins = Cs_ddg.Graph.instr (graph t) i in
  match ins.Cs_ddg.Instr.preplace with
  | Some c -> Some c
  | None ->
    (* A consumer of a homed live-in is softly anchored to that home. *)
    let live_in_homes = t.region.Cs_ddg.Region.live_in_homes in
    List.find_map
      (fun r ->
        match Cs_ddg.Graph.defining_instr (graph t) r with
        | Some _ -> None
        | None -> Cs_ddg.Reg.Map.find_opt r live_in_homes)
      ins.Cs_ddg.Instr.srcs

let any_preplacement t = Array.exists (fun l -> l <> []) t.preplaced_on
