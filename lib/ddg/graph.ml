type t = {
  instrs : Instr.t array;
  succs : int list array;
  preds : int list array;
  n_edges : int;
  topo : int array;
  def_of : int Reg.Map.t;
  live_ins : Reg.Set.t;
}

let n t = Array.length t.instrs
let instr t i = t.instrs.(i)
let instrs t = t.instrs
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)

let neighbors t i = t.preds.(i) @ t.succs.(i)

let n_edges t = t.n_edges

let roots t =
  let acc = ref [] in
  for i = n t - 1 downto 0 do
    if t.preds.(i) = [] then acc := i :: !acc
  done;
  !acc

let leaves t =
  let acc = ref [] in
  for i = n t - 1 downto 0 do
    if t.succs.(i) = [] then acc := i :: !acc
  done;
  !acc

let topo_order t = Array.copy t.topo

let defining_instr t r = Reg.Map.find_opt r t.def_of
let live_in_regs t = t.live_ins

let preplaced t =
  let acc = ref [] in
  for i = n t - 1 downto 0 do
    match t.instrs.(i).Instr.preplace with
    | None -> ()
    | Some c -> acc := (i, c) :: !acc
  done;
  !acc

let compute_topo ~count ~preds ~succs =
  let in_degree = Array.map List.length preds in
  let queue = Queue.create () in
  for i = 0 to count - 1 do
    if in_degree.(i) = 0 then Queue.add i queue
  done;
  let order = Array.make count (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    List.iter
      (fun j ->
        in_degree.(j) <- in_degree.(j) - 1;
        if in_degree.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  if !k <> count then invalid_arg "Graph.of_instrs: dependence graph has a cycle";
  order

let of_instrs instrs ~extra_edges =
  let count = Array.length instrs in
  Array.iteri
    (fun i ins ->
      if ins.Instr.id <> i then invalid_arg "Graph.of_instrs: ids must be dense and in order")
    instrs;
  (* Map each register to its unique defining instruction. *)
  let def_of =
    Array.fold_left
      (fun acc ins ->
        match ins.Instr.dst with
        | None -> acc
        | Some r ->
          if Reg.Map.mem r acc then
            invalid_arg
              (Printf.sprintf "Graph.of_instrs: register %s defined twice" (Reg.to_string r));
          Reg.Map.add r ins.Instr.id acc)
      Reg.Map.empty instrs
  in
  let live_ins = ref Reg.Set.empty in
  let succs = Array.make count [] in
  let preds = Array.make count [] in
  let edge_count = ref 0 in
  let add_edge src dst =
    if src = dst then invalid_arg "Graph.of_instrs: self edge";
    if not (List.mem dst succs.(src)) then begin
      succs.(src) <- dst :: succs.(src);
      preds.(dst) <- src :: preds.(dst);
      incr edge_count
    end
  in
  Array.iter
    (fun ins ->
      List.iter
        (fun r ->
          match Reg.Map.find_opt r def_of with
          | Some d when d <> ins.Instr.id -> add_edge d ins.Instr.id
          | Some _ -> invalid_arg "Graph.of_instrs: instruction uses its own result"
          | None -> live_ins := Reg.Set.add r !live_ins)
        ins.Instr.srcs)
    instrs;
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= count || dst < 0 || dst >= count then
        invalid_arg "Graph.of_instrs: extra edge out of range";
      add_edge src dst)
    extra_edges;
  (* Normalize adjacency to ascending order for determinism. *)
  Array.iteri (fun i l -> succs.(i) <- List.sort Int.compare l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort Int.compare l) preds;
  let topo = compute_topo ~count ~preds ~succs in
  { instrs; succs; preds; n_edges = !edge_count; topo; def_of; live_ins = !live_ins }

let pp fmt t =
  Format.fprintf fmt "@[<v>graph (%d nodes, %d edges)@," (n t) t.n_edges;
  Array.iter
    (fun ins ->
      Format.fprintf fmt "%s -> [%s]@," (Instr.to_string ins)
        (String.concat "," (List.map string_of_int t.succs.(ins.Instr.id))))
    t.instrs;
  Format.fprintf fmt "@]"
