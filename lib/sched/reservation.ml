type t = {
  mutable busy : Bytes.t; (* one byte per cycle; grown on demand *)
  mutable horizon : int; (* max booked cycle + 1 *)
}

(* Empty until the first booking, so a table that is never booked (most
   mesh links of a region) costs its record alone. *)
let create () = { busy = Bytes.empty; horizon = 0 }

let ensure t cycle =
  let len = Bytes.length t.busy in
  if cycle >= len then begin
    let grown = Bytes.make (max (cycle + 1) (max 64 (2 * len))) '\000' in
    Bytes.blit t.busy 0 grown 0 len;
    t.busy <- grown
  end

let is_free t cycle =
  if cycle < 0 then
    Cs_resil.Error.invalid_input "Reservation: negative cycle";
  cycle >= Bytes.length t.busy || Bytes.get t.busy cycle = '\000'

let book t cycle =
  if cycle < 0 then
    Cs_resil.Error.invalid_input "Reservation: negative cycle";
  ensure t cycle;
  if Bytes.get t.busy cycle <> '\000' then
    Cs_resil.Error.resource_conflict
      (Printf.sprintf "Reservation.book: cycle %d already booked" cycle);
  Bytes.set t.busy cycle '\001';
  t.horizon <- Int.max t.horizon (cycle + 1)

let first_free_from t cycle =
  let busy = t.busy in
  let c = ref (if cycle < 0 then 0 else cycle) in
  while !c < Bytes.length busy && Bytes.unsafe_get busy !c <> '\000' do
    incr c
  done;
  !c

let booked_cycles t =
  let acc = ref [] in
  for c = t.horizon - 1 downto 0 do
    if not (is_free t c) then acc := c :: !acc
  done;
  !acc
