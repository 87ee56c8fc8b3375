(* Test-side spellings over [Cs_core.Weights]'s public interface: the
   uniform start, the touched set, time marginals and the writers the
   passes do not need. *)

module W = Cs_core.Weights

(* Full windows everywhere: [1 / (nc * nt)] in every entry, no row
   touched. *)
let uniform ~n ~nc ~nt = W.create_windowed ~nc ~nt ~lo:(Array.make n 0) ~hi:(Array.make n (nt - 1))

(* Ascending row ids. *)
let touched_rows w = List.filter (W.is_touched w) (List.init (W.n w) Fun.id)
let touched_count w = List.length (touched_rows w)

(* An empty pass: clears the touched flags, changes nothing else. *)
let clear_touched w =
  W.begin_pass w;
  W.commit w

(* Slot [t]'s marginal: [get] summed in ascending cluster order. *)
let time_weight w i t =
  let s = ref 0.0 in
  for c = 0 to W.nc w - 1 do
    s := !s +. W.get w i c t
  done;
  !s

let add w i c t v = W.set w i c t (W.get w i c t +. v)

(* The driver's gate, which must pass. *)
let gate w =
  match W.normalize_validate_touched w with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gate rejected the matrix: %s" e
