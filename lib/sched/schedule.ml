type entry = {
  cluster : int;
  fu : int;
  start : int;
  finish : int;
}

type comm = {
  producer : int;
  src : int;
  dst : int;
  depart : int;
  arrive : int;
}

let live_in_producer r = -1 - r

type t = {
  machine : Cs_machine.Machine.t;
  graph : Cs_ddg.Graph.t;
  live_in_homes : int Cs_ddg.Reg.Map.t;
  entries : entry array;
  comms : comm list;
  makespan : int;
}

let make ~machine ~graph ?(live_in_homes = Cs_ddg.Reg.Map.empty) ~entries ~comms () =
  let makespan =
    Array.fold_left (fun acc e -> Int.max acc e.finish) 0 entries
    |> fun m -> List.fold_left (fun acc c -> Int.max acc c.arrive) m comms
  in
  { machine; graph; live_in_homes; entries; comms; makespan }

let makespan t = t.makespan
let n_comms t = List.length t.comms
let assignment t = Array.map (fun e -> e.cluster) t.entries

let cluster_occupancy t =
  let occ = Array.make (Cs_machine.Machine.n_clusters t.machine) 0 in
  Array.iter (fun e -> occ.(e.cluster) <- occ.(e.cluster) + 1) t.entries;
  occ

let utilization t =
  let slots =
    Cs_machine.Machine.n_clusters t.machine
    * Cs_machine.Machine.issue_width t.machine
    * max 1 t.makespan
  in
  float_of_int (Array.length t.entries) /. float_of_int slots

let comms_for t ~producer ~dst =
  List.find_opt (fun c -> c.producer = producer && c.dst = dst) t.comms

let map_clusters f t =
  {
    t with
    entries = Array.map (fun e -> { e with cluster = f e.cluster }) t.entries;
    comms = List.map (fun c -> { c with src = f c.src; dst = f c.dst }) t.comms;
    live_in_homes = Cs_ddg.Reg.Map.map f t.live_in_homes;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule on %s: makespan %d, %d comms@,"
    t.machine.Cs_machine.Machine.name t.makespan (n_comms t);
  for c = 0 to Cs_machine.Machine.n_clusters t.machine - 1 do
    Format.fprintf fmt "cluster %d:@," c;
    let mine =
      Array.to_list t.entries
      |> List.mapi (fun i e -> (i, e))
      |> List.filter (fun (_, e) -> e.cluster = c)
      |> List.sort (fun (_, a) (_, b) -> Int.compare a.start b.start)
    in
    List.iter
      (fun (i, e) ->
        let ins = Cs_ddg.Graph.instr t.graph i in
        Format.fprintf fmt "  [%4d-%4d] fu%d %s@," e.start e.finish e.fu
          (Cs_ddg.Instr.to_string ins))
      mine
  done;
  List.iter
    (fun cm ->
      Format.fprintf fmt "  comm: i%d value %d->%d depart %d arrive %d@," cm.producer
        cm.src cm.dst cm.depart cm.arrive)
    (List.sort (fun a b -> Int.compare a.depart b.depart) t.comms);
  Format.fprintf fmt "@]"
