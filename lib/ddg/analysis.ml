type t = {
  graph : Graph.t;
  lat : int array;
  earliest : int array;
  latest : int array;
  depth : int array;
  height : int array;
  cpl : int;
  dist_cache : (int, int array) Hashtbl.t;
  queue : int array; (* BFS work queue, reused by every search *)
}

let graph t = t.graph
let latency t i = t.lat.(i)
let earliest t i = t.earliest.(i)
let latest t i = t.latest.(i)
let slack t i = t.latest.(i) - t.earliest.(i)
let cpl t = t.cpl
let depth t i = t.depth.(i)
let height t i = t.height.(i)

let max_depth t = Array.fold_left max 0 t.depth

let make ~latency graph =
  let n = Graph.n graph in
  let lat =
    Array.init n (fun i ->
        let l = latency (Graph.instr graph i) in
        if l < 1 then invalid_arg "Analysis.make: latency must be >= 1";
        l)
  in
  let topo = Graph.topo_order graph in
  let earliest = Array.make n 0 in
  let depth = Array.make n 0 in
  Array.iter
    (fun i ->
      List.iter
        (fun p ->
          earliest.(i) <- max earliest.(i) (earliest.(p) + lat.(p));
          depth.(i) <- max depth.(i) (depth.(p) + 1))
        (Graph.preds graph i))
    topo;
  let cpl = ref 0 in
  for i = 0 to n - 1 do
    cpl := max !cpl (earliest.(i) + lat.(i))
  done;
  let cpl = !cpl in
  (* ALAP: latest finish such that all successors can still start in time. *)
  let latest_finish = Array.make n cpl in
  let height = Array.make n 0 in
  for k = n - 1 downto 0 do
    let i = topo.(k) in
    List.iter
      (fun s ->
        latest_finish.(i) <- min latest_finish.(i) (latest_finish.(s) - lat.(s));
        height.(i) <- max height.(i) (height.(s) + 1))
      (Graph.succs graph i)
  done;
  let latest = Array.init n (fun i -> latest_finish.(i) - lat.(i)) in
  { graph; lat; earliest; latest; depth; height; cpl; dist_cache = Hashtbl.create 16;
    queue = Array.make n 0 }

let critical_instrs t =
  let acc = ref [] in
  for i = Graph.n t.graph - 1 downto 0 do
    if slack t i = 0 then acc := i :: !acc
  done;
  !acc

let critical_path t =
  let n = Graph.n t.graph in
  if n = 0 then []
  else begin
    (* Start from the zero-slack root with the smallest id. *)
    let start = List.find_opt (fun i -> slack t i = 0) (Graph.roots t.graph) in
    match start with
    | None -> []
    | Some start ->
      let rec follow i acc =
        let next =
          List.find_opt
            (fun s -> slack t s = 0 && t.earliest.(s) = t.earliest.(i) + t.lat.(i))
            (Graph.succs t.graph i)
        in
        match next with
        | None -> List.rev (i :: acc)
        | Some s -> follow s (i :: acc)
      in
      follow start []
  end

(* Each node enters the queue at most once, so the analysis' [n]-slot
   array is the whole queue. Walking [preds] then [succs] in place visits
   [Graph.neighbors] without building it, so a search allocates nothing
   but the distance row it returns. *)
let bfs t sources =
  let n = Graph.n t.graph in
  let dist = Array.make n max_int in
  let queue = t.queue in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Analysis: bfs source out of range";
      if dist.(s) = max_int then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let rec visit d = function
    | [] -> ()
    | j :: rest ->
      if dist.(j) = max_int then begin
        dist.(j) <- d;
        queue.(!tail) <- j;
        incr tail
      end;
      visit d rest
  in
  let head = ref 0 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let d = dist.(i) + 1 in
    visit d (Graph.preds t.graph i);
    visit d (Graph.succs t.graph i)
  done;
  dist

let distance_row t i =
  match Hashtbl.find_opt t.dist_cache i with
  | Some row -> row
  | None ->
    let row = bfs t [ i ] in
    Hashtbl.add t.dist_cache i row;
    row

let distance t i j = (distance_row t i).(j)

let multi_source_distance t ~sources = bfs t sources
