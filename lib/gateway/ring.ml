type t = {
  points : (int64 * string) array;  (* sorted by unsigned point hash *)
  names : string list;  (* distinct, insertion order *)
}

let vnodes = 64

let point_hash shard i = Cs_core.Scenario.fnv1a (Printf.sprintf "%s/%d" shard i)

let dedup names =
  List.rev
    (List.fold_left
       (fun acc n -> if List.mem n acc then acc else n :: acc)
       [] names)

let compare_points (h1, n1) (h2, n2) =
  match Int64.unsigned_compare h1 h2 with
  | 0 -> String.compare n1 n2  (* total order even on hash collision *)
  | c -> c

let make names =
  let names = dedup names in
  let points =
    List.concat_map
      (fun shard -> List.init vnodes (fun i -> (point_hash shard i, shard)))
      names
    |> Array.of_list
  in
  Array.sort compare_points points;
  { points; names }

let shards t = t.names
let remove t name = make (List.filter (( <> ) name) t.names)

(* Index of the first point with hash >= key (unsigned), wrapping to 0
   past the last point. *)
let successor_index t key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let lo = ref 0 and hi = ref n in
    (* invariant: points.(i) < key for i < lo; points.(i) >= key for i >= hi *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Int64.unsigned_compare (fst t.points.(mid)) key < 0 then lo := mid + 1
      else hi := mid
    done;
    Some (if !lo = n then 0 else !lo)
  end

let route t key =
  Option.map (fun i -> snd t.points.(i)) (successor_index t key)

let candidates t key =
  match successor_index t key with
  | None -> []
  | Some start ->
    let n = Array.length t.points in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    for off = 0 to n - 1 do
      let shard = snd t.points.((start + off) mod n) in
      if not (Hashtbl.mem seen shard) then begin
        Hashtbl.replace seen shard ();
        out := shard :: !out
      end
    done;
    List.rev !out
