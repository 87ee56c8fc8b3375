type t =
  | Mesh of {
      rows : int;
      cols : int;
      base_latency : int;
      per_hop : int;
      dead_nodes : int list;
      dead_links : (int * int) list;
      slow_links : ((int * int) * int) list;
    }
  | Crossbar of { latency : int }

type link = { from_node : int; to_node : int }

let norm a b = if a <= b then (a, b) else (b, a)

let mesh ~rows ~cols ?(base_latency = 3) ?(per_hop = 1) ?(dead_nodes = [])
    ?(dead_links = []) ?(slow_links = []) () =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.mesh: empty mesh";
  let n = rows * cols in
  let adjacent (a, b) =
    a >= 0 && b < n
    && ((b - a = cols) || (b - a = 1 && b mod cols <> 0))
  in
  let check_link what (a, b) =
    if not (adjacent (norm a b)) then
      invalid_arg
        (Printf.sprintf "Topology.mesh: %s %d-%d is not a mesh edge" what a b)
  in
  List.iter
    (fun d ->
      if d < 0 || d >= n then
        invalid_arg (Printf.sprintf "Topology.mesh: dead node %d out of range" d))
    dead_nodes;
  List.iter (check_link "dead link") dead_links;
  List.iter
    (fun (l, f) ->
      check_link "slow link" l;
      if f < 2 then
        invalid_arg (Printf.sprintf "Topology.mesh: slow factor %d < 2" f))
    slow_links;
  let dead_nodes = List.sort_uniq compare dead_nodes in
  let dead_links =
    List.sort_uniq compare (List.map (fun (a, b) -> norm a b) dead_links)
  in
  let slow_links =
    List.filter
      (fun (l, _) -> not (List.mem l dead_links))
      (List.sort_uniq compare
         (List.map (fun ((a, b), f) -> (norm a b, f)) slow_links))
  in
  Mesh { rows; cols; base_latency; per_hop; dead_nodes; dead_links; slow_links }

let is_degraded = function
  | Mesh { dead_nodes; dead_links; slow_links; _ } ->
    dead_nodes <> [] || dead_links <> [] || slow_links <> []
  | Crossbar _ -> false

let coords t id =
  match t with
  | Mesh { cols; _ } -> (id / cols, id mod cols)
  | Crossbar _ -> invalid_arg "Topology.coords: not a mesh"

(* Weight of traversing the (undirected) edge [a]-[b]; [None] if dead. *)
let edge_weight ~dead_links ~slow_links a b =
  let e = norm a b in
  if List.mem e dead_links then None
  else
    match List.assoc_opt e slow_links with
    | Some f -> Some f
    | None -> Some 1

(* Deterministic Dijkstra over the surviving grid. Returns the weight
   and the hop path of the min-weight route, ties broken toward the
   path found first when scanning nodes in increasing id and
   neighbours in a fixed order. *)
let shortest ~rows ~cols ~dead_nodes ~dead_links ~slow_links src dst =
  let n = rows * cols in
  let alive v = not (List.mem v dead_nodes) in
  if (not (alive src)) || not (alive dst) then None
  else if src = dst then Some (0, [])
  else begin
    let dist = Array.make n max_int in
    let prev = Array.make n (-1) in
    let done_ = Array.make n false in
    dist.(src) <- 0;
    let neighbours v =
      let r = v / cols and c = v mod cols in
      List.filter_map
        (fun (dr, dc) ->
          let r' = r + dr and c' = c + dc in
          if r' >= 0 && r' < rows && c' >= 0 && c' < cols then
            Some ((r' * cols) + c')
          else None)
        [ (-1, 0); (0, -1); (0, 1); (1, 0) ]
    in
    let exception Done in
    (try
       for _ = 0 to n - 1 do
         (* pick the unfinished alive node with the smallest distance;
            ties go to the lowest id *)
         let u = ref (-1) in
         for v = n - 1 downto 0 do
           if (not done_.(v)) && alive v && dist.(v) < max_int
              && (!u = -1 || dist.(v) <= dist.(!u))
           then u := v
         done;
         if !u = -1 then raise Done;
         let u = !u in
         if u = dst then raise Done;
         done_.(u) <- true;
         List.iter
           (fun v ->
             if (not done_.(v)) && alive v then
               match edge_weight ~dead_links ~slow_links u v with
               | None -> ()
               | Some w ->
                 if dist.(u) + w < dist.(v) then begin
                   dist.(v) <- dist.(u) + w;
                   prev.(v) <- u
                 end)
           (neighbours u)
       done
     with Done -> ());
    if dist.(dst) = max_int then None
    else begin
      let path = ref [] in
      let cur = ref dst in
      while !cur <> src do
        let p = prev.(!cur) in
        path := { from_node = p; to_node = !cur } :: !path;
        cur := p
      done;
      Some (dist.(dst), !path)
    end
  end

let shortest_of t src dst =
  match t with
  | Crossbar _ -> invalid_arg "Topology.shortest: not a mesh"
  | Mesh { rows; cols; dead_nodes; dead_links; slow_links; _ } ->
    shortest ~rows ~cols ~dead_nodes ~dead_links ~slow_links src dst

let reachable t a b =
  match t with
  | Crossbar _ -> true
  | Mesh _ when not (is_degraded t) -> true
  | Mesh _ -> shortest_of t a b <> None

let hops t a b =
  if a = b then 0
  else
    match t with
    | Crossbar _ -> 1
    | Mesh { cols; _ } when not (is_degraded t) ->
      let ra = a / cols and ca = a mod cols in
      let rb = b / cols and cb = b mod cols in
      abs (ra - rb) + abs (ca - cb)
    | Mesh _ -> (
      match shortest_of t a b with
      | Some (_, path) -> List.length path
      | None -> Cs_resil.Error.unreachable ~src:a ~dst:b)

(* Total path weight: hop count with slow links counted [factor] times. *)
let path_weight t a b =
  if a = b then 0
  else
    match t with
    | Crossbar _ -> 1
    | Mesh _ when not (is_degraded t) -> hops t a b
    | Mesh _ -> (
      match shortest_of t a b with
      | Some (w, _) -> w
      | None -> Cs_resil.Error.unreachable ~src:a ~dst:b)

let comm_latency t ~src ~dst =
  if src = dst then 0
  else
    match t with
    | Crossbar { latency } -> latency
    | Mesh { base_latency; per_hop; _ } ->
      base_latency + (per_hop * (path_weight t src dst - 1))

let route t ~src ~dst =
  if src = dst then []
  else
    match t with
    | Crossbar _ -> []
    | Mesh { cols; _ } when not (is_degraded t) ->
      (* X (column) first, then Y (row). *)
      let acc = ref [] in
      let cur = ref src in
      let step next =
        acc := { from_node = !cur; to_node = next } :: !acc;
        cur := next
      in
      let target_col = dst mod cols and target_row = dst / cols in
      while !cur mod cols <> target_col do
        let col = !cur mod cols in
        let next_col = if col < target_col then col + 1 else col - 1 in
        step ((!cur / cols * cols) + next_col)
      done;
      while !cur / cols <> target_row do
        let row = !cur / cols in
        let next_row = if row < target_row then row + 1 else row - 1 in
        step ((next_row * cols) + (!cur mod cols))
      done;
      List.rev !acc
    | Mesh _ -> (
      match shortest_of t src dst with
      | Some (_, path) -> path
      | None -> Cs_resil.Error.unreachable ~src ~dst)

let pp fmt = function
  | Mesh { rows; cols; base_latency; per_hop; dead_nodes; dead_links; slow_links }
    ->
    Format.fprintf fmt "mesh %dx%d (lat %d + %d/hop)" rows cols base_latency
      per_hop;
    if dead_nodes <> [] then
      Format.fprintf fmt " dead-nodes[%s]"
        (String.concat "," (List.map string_of_int dead_nodes));
    if dead_links <> [] then
      Format.fprintf fmt " dead-links[%s]"
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) dead_links));
    if slow_links <> [] then
      Format.fprintf fmt " slow-links[%s]"
        (String.concat ","
           (List.map
              (fun ((a, b), f) -> Printf.sprintf "%d-%d:x%d" a b f)
              slow_links))
  | Crossbar { latency } -> Format.fprintf fmt "crossbar (lat %d)" latency
