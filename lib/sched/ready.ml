type t = {
  priority : int array;
  height : int array;
  heap : int array;
  mutable size : int;
}

let create ~priority ~height =
  let n = Array.length priority in
  if Array.length height <> n then
    invalid_arg "Ready.create: priority and height lengths differ";
  { priority; height; heap = Array.make n 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* [i] pops before [j]. *)
let[@inline] before t i j =
  let pi = Array.unsafe_get t.priority i and pj = Array.unsafe_get t.priority j in
  pi < pj
  || pi = pj
     &&
     let hi = Array.unsafe_get t.height i and hj = Array.unsafe_get t.height j in
     hi > hj || (hi = hj && i < j)

(* The hole at [k] moves up past every parent that [i] pops before. *)
let sift_up t h k i =
  let k = ref k in
  while
    !k > 0
    &&
    let parent = (!k - 1) / 2 in
    before t i (Array.unsafe_get h parent)
  do
    let parent = (!k - 1) / 2 in
    Array.unsafe_set h !k (Array.unsafe_get h parent);
    k := parent
  done;
  Array.unsafe_set h !k i

let push t i =
  if i < 0 || i >= Array.length t.priority then invalid_arg "Ready.push: id out of range";
  if t.size = Array.length t.heap then invalid_arg "Ready.push: an id is queued twice";
  t.size <- t.size + 1;
  sift_up t t.heap (t.size - 1) i

let pop t =
  if t.size = 0 then -1
  else begin
    let h = t.heap in
    let top = h.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      (* The root's hole sinks to a leaf along the earlier child, one
         comparison a level, and the last id rises from there. *)
      let k = ref 0 in
      while (2 * !k) + 1 < n do
        let l = (2 * !k) + 1 in
        let c =
          if l + 1 < n && before t (Array.unsafe_get h (l + 1)) (Array.unsafe_get h l) then l + 1
          else l
        in
        Array.unsafe_set h !k (Array.unsafe_get h c);
        k := c
      done;
      sift_up t h !k h.(n)
    end;
    top
  end

let peek t = if t.size = 0 then -1 else t.heap.(0)
