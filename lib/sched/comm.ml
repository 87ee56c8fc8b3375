let transfer_unit_count machine cluster =
  Array.fold_left
    (fun acc fu -> if fu = Cs_machine.Fu.Transfer_unit then acc + 1 else acc)
    0 machine.Cs_machine.Machine.fus.(cluster)

(* Transfer units the cluster was built with, dead or alive. A cluster
   that *had* transfer units but lost them all to a fault plan cannot
   send at all -- unlike a Raw tile that never had any, whose sends are
   register-mapped and free. *)
let built_transfer_unit_count machine cluster =
  Array.fold_left
    (fun acc fu ->
      if Cs_machine.Fu.base_kind fu = Cs_machine.Fu.Transfer_unit then acc + 1
      else acc)
    0 machine.Cs_machine.Machine.fus.(cluster)

let sends_impossible machine cluster =
  transfer_unit_count machine cluster = 0
  && built_transfer_unit_count machine cluster > 0

(* Int-keyed tables hashed by the key itself: the keys are small and
   dense, and [Hashtbl.hash] is a C call. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

type t = {
  machine : Cs_machine.Machine.t;
  nc : int;
  paths : path array; (* src * nc + dst; [unknown] until asked *)
  xfer_units : Reservation.t array array; (* crossbar: per cluster, per transfer unit *)
  links : Reservation.t array; (* mesh: per link id, [4 * from + direction] *)
  memo : int Itbl.t; (* producer * nc + dst -> arrival *)
  mutable booked : Schedule.comm list;
}

(* A cluster pair's latency and, on a mesh, its route as link ids. *)
and path = { latency : int; route : int array }

let unknown = { latency = -1; route = [||] }

let create machine =
  let nc = Cs_machine.Machine.n_clusters machine in
  let xfer_units =
    Array.init nc (fun c ->
        (* Raw tiles have no transfer units; sends are register-mapped and
           free. Model that as unlimited capacity (empty array = skip). *)
        Array.init (transfer_unit_count machine c) (fun _ -> Reservation.create ()))
  in
  let links = if Cs_machine.Machine.is_mesh machine then 4 * nc else 0 in
  { machine; nc; paths = Array.make (nc * nc) unknown; xfer_units;
    links = Array.init links (fun _ -> Reservation.create ()); memo = Itbl.create 64;
    booked = [] }

(* A mesh link's id, [4 * from + direction], with the directions up,
   left, right and down; [link_of_id] inverts it. *)
let link_ids cols links =
  Array.of_list
    (List.map
       (fun (l : Cs_machine.Topology.link) ->
         let d = l.to_node - l.from_node in
         (4 * l.from_node) + if d = -cols then 0 else if d = cols then 3 else if d < 0 then 1 else 2)
       links)

let link_of_id cols id =
  let from_node = if id >= 0 then id / 4 else (id - 3) / 4 in
  let step = match id - (4 * from_node) with 0 -> -cols | 1 -> -1 | 2 -> 1 | _ -> cols in
  { Cs_machine.Topology.from_node; to_node = from_node + step }

(* Found once per pair: on a degraded mesh both halves are a
   shortest-path search. An unreachable pair raises every time. Vertical
   steps are tested first, so a one-column mesh is not read as a row. *)
let path t src dst =
  if src < 0 || src >= t.nc || dst < 0 || dst >= t.nc then
    Cs_resil.Error.invalid_input (Printf.sprintf "Comm: clusters %d->%d out of range" src dst);
  let k = (src * t.nc) + dst in
  if t.paths.(k) == unknown then begin
    let topology = t.machine.Cs_machine.Machine.topology in
    let latency = Cs_machine.Machine.comm_latency t.machine ~src ~dst in
    let route =
      match topology with
      | Cs_machine.Topology.Crossbar _ -> [||]
      | Cs_machine.Topology.Mesh { cols; _ } ->
        link_ids cols (Cs_machine.Topology.route topology ~src ~dst)
    in
    t.paths.(k) <- { latency; route }
  end;
  t.paths.(k)

(* The delivery memo's key; a destination out of range would alias
   another pair's. *)
let memo_key t ~producer ~dst =
  if dst < 0 || dst >= t.nc then
    Cs_resil.Error.invalid_input (Printf.sprintf "Comm: cluster %d out of range" dst);
  (producer * t.nc) + dst

(* Earliest depart >= ready with all route links free wormhole-style:
   link k of the route is busy at cycle [depart + k]. *)
let rec route_free links route d k =
  k = Array.length route
  || (Reservation.is_free links.(route.(k)) (d + k) && route_free links route d (k + 1))

let rec mesh_depart links route d =
  if route_free links route d 0 then d else mesh_depart links route (d + 1)

(* Books the earliest transfer departing at or after [ready], memoizes
   it and returns the arrival. *)
let attempt t ~producer ~src ~dst ~ready =
  let { latency; route } = path t src dst in
  let depart =
    match t.machine.Cs_machine.Machine.topology with
    | Cs_machine.Topology.Crossbar _ -> (
      match t.xfer_units.(src) with
      | [||] when sends_impossible t.machine src ->
        Cs_resil.Error.infeasible
          (Printf.sprintf "cluster %d cannot send: all transfer units dead" src)
      | [||] ->
        (* Never had a transfer unit to contend for (Raw-like): depart as
           soon as ready. *)
        ready
      | units ->
        (* The earliest free unit, the lowest index on a tie. *)
        let best = ref (Reservation.first_free_from units.(0) ready) and best_u = ref 0 in
        for u = 1 to Array.length units - 1 do
          let c = Reservation.first_free_from units.(u) ready in
          if c < !best then begin
            best := c;
            best_u := u
          end
        done;
        Reservation.book units.(!best_u) !best;
        !best)
    | Cs_machine.Topology.Mesh _ ->
      let d = mesh_depart t.links route ready in
      for k = 0 to Array.length route - 1 do
        Reservation.book t.links.(route.(k)) (d + k)
      done;
      d
  in
  let arrive = depart + latency in
  Itbl.add t.memo (memo_key t ~producer ~dst) arrive;
  t.booked <- { Schedule.producer; src; dst; depart; arrive } :: t.booked;
  arrive

let deliver t ~producer ~src ~dst ~ready =
  if src = dst then ready
  else
    match Itbl.find t.memo (memo_key t ~producer ~dst) with
    | arrival -> arrival
    | exception Not_found -> attempt t ~producer ~src ~dst ~ready

let bookings t = t.booked

let link_conflicts machine comms =
  let problems = ref [] in
  (match machine.Cs_machine.Machine.topology with
  | Cs_machine.Topology.Crossbar _ ->
    (* Transfers departing a cluster the same cycle must not exceed its
       transfer units (unlimited when it has none, e.g. Raw-like). Keyed
       by [depart * nc + src]; each oversubscribed (cluster, cycle) is
       reported once, in the order of its first transfer. A transfer
       from a cluster the machine lacks has no unit to oversubscribe. *)
    let nc = Cs_machine.Machine.n_clusters machine in
    let usage = Itbl.create 64 in
    let key (cm : Schedule.comm) = (cm.depart * nc) + cm.src in
    let sent = List.filter (fun (cm : Schedule.comm) -> cm.src >= 0 && cm.src < nc) comms in
    List.iter
      (fun cm ->
        Itbl.replace usage (key cm)
          (1 + match Itbl.find usage (key cm) with c -> c | exception Not_found -> 0))
      sent;
    List.iter
      (fun (cm : Schedule.comm) ->
        let count = Itbl.find usage (key cm) and src = cm.src and depart = cm.depart in
        Itbl.replace usage (key cm) 0;
        let cap = transfer_unit_count machine src in
        if count = 0 then ()
        else if sends_impossible machine src then
          problems :=
            Printf.sprintf
              "cluster %d issues %d transfers at cycle %d but all its transfer units are dead"
              src count depart
            :: !problems
        else if cap > 0 && count > cap then
          problems :=
            Printf.sprintf "cluster %d issues %d transfers at cycle %d (capacity %d)" src
              count depart cap
            :: !problems)
      sent
  | Cs_machine.Topology.Mesh { cols; _ } ->
    (* Link use, holding the first producer seen, keyed by
       [cycle * links + link id], which no two (link, cycle) pairs
       share while the id is in range and the cycle is not huge; a
       corrupt schedule's other pairs go to a tuple table. Each in-range
       cluster pair's route is found once. *)
    let nc = Cs_machine.Machine.n_clusters machine in
    let links = 4 * nc in
    let usage = Itbl.create 256 and odd = Hashtbl.create 1 in
    let first_user id cycle producer =
      if id >= 0 && id < links && abs cycle < 1 lsl 40 then begin
        let key = (cycle * links) + id in
        match Itbl.find usage key with
        | other -> Some other
        | exception Not_found ->
          Itbl.add usage key producer;
          None
      end
      else
        match Hashtbl.find_opt odd (id, cycle) with
        | Some _ as other -> other
        | None ->
          Hashtbl.add odd (id, cycle) producer;
          None
    in
    let routes = Array.make (nc * nc) None in
    let route ~src ~dst =
      let find () =
        (* A corrupt schedule may record transfers with no surviving
           route; report rather than crash (the validator must be total). *)
        Cs_resil.Error.protect (fun () ->
            link_ids cols (Cs_machine.Topology.route machine.Cs_machine.Machine.topology ~src ~dst))
      in
      if src < 0 || src >= nc || dst < 0 || dst >= nc then find ()
      else
        match routes.((src * nc) + dst) with
        | Some r -> r
        | None ->
          let r = find () in
          routes.((src * nc) + dst) <- Some r;
          r
    in
    List.iter
      (fun (cm : Schedule.comm) ->
        match route ~src:cm.src ~dst:cm.dst with
        | Error e ->
          problems :=
            Printf.sprintf "transfer of i%d (%d->%d) has no route: %s" cm.producer cm.src
              cm.dst (Cs_resil.Error.to_string e)
            :: !problems
        | Ok ids ->
          for k = 0 to Array.length ids - 1 do
            let cycle = cm.depart + k in
            match first_user ids.(k) cycle cm.producer with
            | Some other ->
              let link = link_of_id cols ids.(k) in
              problems :=
                Printf.sprintf "link %d->%d used at cycle %d by values of i%d and i%d"
                  link.from_node link.to_node cycle other cm.producer
                :: !problems
            | None -> ()
          done)
      comms);
  !problems
