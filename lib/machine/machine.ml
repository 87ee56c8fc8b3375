type t = {
  name : string;
  n_clusters : int;
  fus : Fu.kind array array;
  topology : Topology.t;
  latency : Cs_ddg.Opcode.t -> int;
  remote_mem_penalty : int;
}

let make ~name ~fus ~topology ?(latency = Latency.r4000) ?(remote_mem_penalty = 0) () =
  let n_clusters = Array.length fus in
  if n_clusters = 0 then invalid_arg "Machine.make: no clusters";
  (match topology with
  | Topology.Mesh { rows; cols; _ } ->
    if rows * cols <> n_clusters then
      invalid_arg "Machine.make: mesh size disagrees with cluster count"
  | Topology.Crossbar _ -> ());
  { name; n_clusters; fus; topology; latency; remote_mem_penalty }

let n_clusters t = t.n_clusters
let issue_width t = Array.length t.fus.(0)

let latency_of t ins = t.latency ins.Cs_ddg.Instr.op

let fus_for t ~cluster op =
  let cls = Cs_ddg.Opcode.cls op in
  let units = t.fus.(cluster) in
  let acc = ref [] in
  for u = Array.length units - 1 downto 0 do
    if Fu.can_execute units.(u) cls then acc := u :: !acc
  done;
  !acc

(* A scan, not [fus_for t ~cluster op <> []]: it runs once per
   (instruction, cluster) in extraction, placement checks and the
   baselines, and must not allocate. *)
let rec any_unit units cls u =
  u < Array.length units && (Fu.can_execute units.(u) cls || any_unit units cls (u + 1))

let can_execute t ~cluster op = any_unit t.fus.(cluster) (Cs_ddg.Opcode.cls op) 0

let comm_latency t ~src ~dst = Topology.comm_latency t.topology ~src ~dst
let hops t a b = Topology.hops t.topology a b

let is_mesh t =
  match t.topology with Topology.Mesh _ -> true | Topology.Crossbar _ -> false

let is_cluster_alive t c =
  c >= 0 && c < t.n_clusters && Array.exists (fun u -> not (Fu.is_dead u)) t.fus.(c)

let is_degraded t =
  Topology.is_degraded t.topology
  || Array.exists (fun units -> Array.exists Fu.is_dead units) t.fus

let degrade t plan =
  if Cs_resil.Fault.is_empty plan then t
  else begin
    let fus = Array.map Array.copy t.fus in
    let check_cluster what c =
      if c < 0 || c >= t.n_clusters then
        Cs_resil.Error.invalid_input
          (Printf.sprintf "fault plan: %s %d out of range (machine has %d clusters)"
             what c t.n_clusters)
    in
    let dead_tiles = ref [] in
    let dead_links = ref [] in
    let slow_links = ref [] in
    List.iter
      (fun f ->
        match (f : Cs_resil.Fault.fault) with
        | Dead_tile c ->
          check_cluster "tile" c;
          dead_tiles := c :: !dead_tiles;
          fus.(c) <- Array.map Fu.kill fus.(c)
        | Dead_fu { cluster; fu } ->
          check_cluster "fu cluster" cluster;
          if fu < 0 || fu >= Array.length fus.(cluster) then
            Cs_resil.Error.invalid_input
              (Printf.sprintf "fault plan: fu %d:%d out of range (cluster has %d units)"
                 cluster fu
                 (Array.length fus.(cluster)));
          fus.(cluster).(fu) <- Fu.kill fus.(cluster).(fu)
        | Dead_link (a, b) ->
          if not (is_mesh t) then
            Cs_resil.Error.invalid_input
              (Printf.sprintf "fault plan: link=%d-%d needs a mesh topology" a b);
          dead_links := (a, b) :: !dead_links
        | Slow_link { a; b; factor } ->
          if not (is_mesh t) then
            Cs_resil.Error.invalid_input
              (Printf.sprintf "fault plan: slow-link=%d-%d needs a mesh topology" a b);
          slow_links := ((a, b), factor) :: !slow_links)
      plan;
    if not (Array.exists (fun units -> Array.exists (fun u -> not (Fu.is_dead u)) units) fus)
    then Cs_resil.Error.invalid_input "fault plan kills every cluster";
    let topology =
      match t.topology with
      | Topology.Crossbar _ as cb -> cb
      | Topology.Mesh m -> (
        match
          Topology.mesh ~rows:m.rows ~cols:m.cols ~base_latency:m.base_latency
            ~per_hop:m.per_hop
            ~dead_nodes:(m.dead_nodes @ !dead_tiles)
            ~dead_links:(m.dead_links @ !dead_links)
            ~slow_links:(m.slow_links @ !slow_links)
            ()
        with
        | topo -> topo
        | exception Invalid_argument msg -> Cs_resil.Error.invalid_input msg)
    in
    {
      t with
      name = Printf.sprintf "%s!%s" t.name (Cs_resil.Fault.to_string plan);
      fus;
      topology;
    }
  end

let validate_region t region =
  let graph = region.Cs_ddg.Region.graph in
  let problems = ref [] in
  Array.iter
    (fun ins ->
      (match ins.Cs_ddg.Instr.preplace with
      | Some c when c < 0 || c >= t.n_clusters ->
        problems :=
          Printf.sprintf "instr %d preplaced on cluster %d (machine has %d)"
            ins.Cs_ddg.Instr.id c t.n_clusters
          :: !problems
      | Some c
        when (not (can_execute t ~cluster:c ins.Cs_ddg.Instr.op))
             && not
                  (Cs_ddg.Opcode.is_memory ins.Cs_ddg.Instr.op
                  && t.remote_mem_penalty > 0) ->
        (* A dead home cluster is tolerable for memory ops on machines
           with remote memory access; anything else is stuck. *)
        problems :=
          Printf.sprintf
            "instr %d preplaced on cluster %d which cannot execute %s"
            ins.Cs_ddg.Instr.id c
            (Cs_ddg.Opcode.to_string ins.Cs_ddg.Instr.op)
          :: !problems
      | Some _ | None -> ());
      let executable =
        let rec any c = c < t.n_clusters && (can_execute t ~cluster:c ins.Cs_ddg.Instr.op || any (c + 1)) in
        any 0
      in
      if not executable then
        problems :=
          Printf.sprintf "opcode %s of instr %d not executable anywhere"
            (Cs_ddg.Opcode.to_string ins.Cs_ddg.Instr.op)
            ins.Cs_ddg.Instr.id
          :: !problems)
    (Cs_ddg.Graph.instrs graph);
  Cs_ddg.Reg.Map.iter
    (fun r c ->
      if c < 0 || c >= t.n_clusters then
        problems :=
          Printf.sprintf "live-in %s homed on cluster %d (machine has %d)"
            (Cs_ddg.Reg.to_string r) c t.n_clusters
          :: !problems)
    region.Cs_ddg.Region.live_in_homes;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let pp fmt t =
  Format.fprintf fmt "%s: %d clusters x %d FUs, %a" t.name t.n_clusters (issue_width t)
    Topology.pp t.topology
