(* The state lives in 8 bytes rather than a mutable [int64] field,
   which would box every new state; with [bits64] and [mix64] inlined,
   a draw that stays in this module allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let state t = get64 t 0

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t =
  let s = bits64 t in
  of_state s

let copy = Bytes.copy

let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for our non-cryptographic needs, but we
     mask to 62 bits first to stay non-negative as an OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound = bound *. (float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *))
let bool t = Int64.logand (bits64 t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-12 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
