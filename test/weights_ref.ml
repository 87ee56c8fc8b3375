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

(* The fused row kernels' per-element spellings through [get], [set]
   and [scale], over every slot of the row in flat (cluster-major)
   order. Each raises where its kernel does, with the entries before
   the bad one written. *)
let scale_cluster w i c f =
  for t = 0 to W.nt w - 1 do
    W.scale w i c t f
  done

let scale_time w i t f =
  for c = 0 to W.nc w - 1 do
    W.scale w i c t f
  done

let scale_clusters w i fs =
  for c = 0 to W.nc w - 1 do
    scale_cluster w i c fs.(c)
  done

(* NOISE draws in flat order, so a kernel visiting entries out of order
   would not match this spelling. *)
let add_noise w i rng bound =
  for c = 0 to W.nc w - 1 do
    for t = 0 to W.nt w - 1 do
      let v = W.get w i c t in
      if v > 0.0 then W.set w i c t (v +. Cs_util.Rng.float rng bound)
    done
  done
