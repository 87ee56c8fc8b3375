(* The preference matrix lives in one contiguous instr-major float64
   block:

     index(i, c, t) = ((i * nc) + c) * nt + t

   so one instruction's whole row is a contiguous slice of
   nc * nt doubles, a (i, c) cluster lane is a contiguous run of nt
   doubles inside it, and a (i, t) time lane is an nt-strided walk.
   The convergent passes are dense sweeps over rows, so every kernel
   below is written as a single fused loop over that layout.

   The block is a Bigarray.Array1 of float64 driven by unsafe fused
   kernels. Each fused kernel performs the *same floating-point
   operations in the same order* as its per-element spelling through
   [get]/[set]/[scale] (it accumulates the same per-element deltas
   into the caches), so the two are bit-identical — test/test_weights.ml
   pins that property per kernel, and test/golden/schedules.txt pins
   the schedules and per-pass telemetry the kernels produce.

   Two marginal caches (cluster sums and row totals) are maintained
   incrementally by every write and rebuilt exactly by [normalize_row].
   The time marginals are not cached: only COMM's preferred-slot boost,
   REGPRESS and the final extraction read them, through
   [preferred_time], which sums them from the row's window when asked.
   [scale_clusters] and [add_noise], which sweep a whole window, also
   hand the gate the flat-order total of what they stored
   ([sweep_total]), so the gate's [normalize_row] skips its own total
   sweep; every other writer, [blend] included, withdraws it. A per-row
   dirty bit records which rows changed since the last [begin_pass], so
   renormalization and the driver's quarantine gate touch only the
   rows a pass actually wrote. While a
   pass is open ([begin_pass]), every writer also saves a row's
   pre-pass state to an undo log the first time it changes the row, so
   [rollback] restores exactly those rows and [commit] forgets them.

   Each row also carries a live time window [lo.(i)..hi.(i)]: every
   entry outside it is +0.0, bit for bit. INITTIME confines each
   instruction to its slack window, so most of a row is zero; the
   row kernels ([scale_cluster], [scale_clusters], [normalize_row],
   [blend]) sweep only [lo..hi] of each cluster lane. Skipping a +0.0
   changes nothing: a sum plus +0.0 is the sum (an accumulator that
   starts at +0.0 is never -0.0), a scaled +0.0 has delta 0 and was
   skipped anyway, and a blend of two +0.0 is +0.0. A non-finite
   factor takes the whole lane, since inf * 0 is NaN and must raise
   as before. Writers keep the window conservative: the uniform reset
   gives the full window, [create_windowed] gives each row its own,
   [mask_time_window] narrows it, [blend] takes the hull of both rows',
   [set] widens it over any value it writes that is not +0.0, and
   [add_noise] only raises positive entries, which are live already.
   The window only ever over-approximates the non-zero slots. *)

type ba1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The undo log of the open pass. Save [k] is the row id, [lo], [hi],
   a chunk index and an offset into that chunk at [rows.(5k) ..
   rows.(5k+4)]; there the chunk holds the window's entries lane by
   lane, then the row's [nc] cluster sums and its total. Saves fill
   [chunks.(0)], then [chunks.(1)], and so on; a chunk is allocated
   once and never copied, so the log holds no more than its largest
   pass plus one chunk. Chunks live outside the OCaml heap: the major
   GC lets the heap grow in proportion to what is live in it, and a
   log kept there would count several times over. A pass borrows the
   chunks from its domain (see [spare]). *)
type undo = {
  mutable rows : int array;
  mutable count : int;
  mutable chunks : ba1 array;
  mutable chunk : int; (* the chunk being filled *)
  mutable used : int; (* floats used in it *)
}

let empty_undo () = { rows = [||]; count = 0; chunks = [||]; chunk = 0; used = 0 }
let no_chunk : ba1 = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

(* 128 KiB; a row that needs more gets a chunk of its own size. *)
let chunk_floats = 16384

type t = {
  n : int;
  nc : int;
  nt : int;
  w : ba1;
  cluster_sum : float array; (* n * nc *)
  row_total : float array; (* n *)
  sweep_total : float array;
      (* n: the flat-order sum of the window's entries, handed over by
         the last writer if it was [scale_clusters] or [add_noise],
         else nan *)
  dirty : Bytes.t; (* n bytes: rows written since begin_pass *)
  mutable n_dirty : int;
  lo : int array; (* n: live window start; entries before it are +0.0 *)
  hi : int array; (* n: live window end; entries after it are +0.0 *)
  mutable logging : bool; (* a pass is open: writers save rows first *)
  saved : Bytes.t; (* n bytes: rows in the undo log *)
  undo : undo;
  mutable store : ba1;
      (* the block [w] is a prefix of, until [release] hands it back *)
}

let n t = t.n
let nc t = t.nc
let nt t = t.nt

let idx t i c tt = (((i * t.nc) + c) * t.nt) + tt

(* The matrix store outlives its matrix, as the log's chunks do. OCaml
   charges a fresh [Bigarray]'s out-of-heap bytes to the major GC, so a
   fresh multi-megabyte block per region forces about one full major
   cycle per region. Each domain keeps one spare store instead: a
   matrix built on the domain views a prefix of it when it is large
   enough, and [release] hands a dead matrix's store back. A store
   above [store_cap] floats is never kept, nor is a log's chunk set
   beyond it, so one huge region does not pin its memory on a domain
   for good. *)
let store_cap = 1 lsl 20

let spare_store = Domain.DLS.new_key (fun () -> ref no_chunk)

(* A kept spare store is clean, all +0.0: [release] zeroes the dead
   matrix's live windows, the rest of the matrix is +0.0 by the window
   invariant, and the store past the matrix was clean when taken. The
   flag says the store is clean; a fresh one is not. *)
let take_store size =
  let d = Domain.DLS.get spare_store in
  if size > 0 && Bigarray.Array1.dim !d >= size then begin
    let s = !d in
    d := no_chunk;
    (s, true)
  end
  else (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout size, false)

let release t =
  let s = t.store in
  t.store <- no_chunk;
  let d = Domain.DLS.get spare_store in
  let size = Bigarray.Array1.dim s in
  if size <= store_cap && size > Bigarray.Array1.dim !d then begin
    let ba = t.w and nc = t.nc and nt = t.nt in
    for i = 0 to t.n - 1 do
      let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
      for c = 0 to nc - 1 do
        let lane = ((i * nc) + c) * nt in
        for tt = lo to hi do
          Bigarray.Array1.unsafe_set ba (lane + tt) 0.0
        done
      done
    done;
    d := s
  end

(* The uniform matrix [v = 1 / (nc * nt)] everywhere, then
   [mask_time_window w i ~lo:lo.(i) ~hi:hi.(i)] on every row whose
   window leaves out a slot, then the gate's [normalize_row] on those
   rows, bit for bit (entries, caches, windows and touched flags),
   writing each row once. A row whose window spans every slot keeps the
   uniform entries and caches. A masked row holds [v] in its window, so
   [normalize_row] divides every entry by one total, the [nc * width]
   copies of [v] summed in order, and rebuilds each cache as a run of
   equal terms: all of it depends on the width alone and is computed
   once per width. A window the mask leaves empty makes that total
   zero, and [normalize_row] resets the row to uniform over the full
   window. Every rebuilt row is a positive spread summing to 1, so the
   gate would pass it. A fresh store gets every entry written, a clean
   reused one only the live windows, so a reused store leaves no
   trace. *)
let create_windowed ~nc ~nt ~lo ~hi =
  let n = Array.length lo in
  if Array.length hi <> n then invalid_arg "Weights.create_windowed: lo and hi lengths differ";
  if nc <= 0 || nt <= 0 then invalid_arg "Weights.create_windowed: bad dimensions";
  let v = 1.0 /. float_of_int (nc * nt) in
  let size = n * nc * nt in
  let store, clean = take_store size in
  let t =
    {
      n;
      nc;
      nt;
      w = (if Bigarray.Array1.dim store = size then store else Bigarray.Array1.sub store 0 size);
      cluster_sum = Array.make (n * nc) (v *. float_of_int nt);
      row_total = Array.make n (v *. float_of_int (nc * nt));
      sweep_total = Array.make n Float.nan;
      dirty = Bytes.make (max n 1) '\000';
      n_dirty = 0;
      lo = Array.make n 0;
      hi = Array.make n (nt - 1);
      logging = false;
      saved = Bytes.make (max n 1) '\000';
      undo = empty_undo ();
      store;
    }
  in
  let sum_of count x =
    let s = ref 0.0 in
    for _ = 1 to count do
      s := !s +. x
    done;
    !s
  in
  (* Indexed by width; width 0 stands for the uniform reset. *)
  let entry = Array.make (nt + 1) 0.0 and known = Bytes.make (nt + 1) '\000' in
  let lane_sum = Array.make (nt + 1) 0.0 and row_sum = Array.make (nt + 1) 0.0 in
  let learn width =
    if Bytes.get known width = '\000' then begin
      let x = if width = 0 then v else v /. sum_of (nc * width) v in
      entry.(width) <- x;
      lane_sum.(width) <- sum_of (if width = 0 then nt else width) x;
      row_sum.(width) <- sum_of nc lane_sum.(width);
      Bytes.set known width '\001'
    end
  in
  let ba = t.w in
  for i = 0 to n - 1 do
    let base = i * nc * nt in
    let l = Int.max 0 lo.(i) and h = Int.min (nt - 1) hi.(i) in
    if l = 0 && h = nt - 1 then
      for k = base to base + (nc * nt) - 1 do
        Bigarray.Array1.unsafe_set ba k v
      done
    else begin
      let width = Int.max 0 (h - l + 1) in
      let l, h = if width = 0 then (0, nt - 1) else (l, h) in
      learn width;
      let x = entry.(width) in
      for c = 0 to nc - 1 do
        let lane = base + (c * nt) in
        if not clean then
          for tt = 0 to l - 1 do
            Bigarray.Array1.unsafe_set ba (lane + tt) 0.0
          done;
        for tt = l to h do
          Bigarray.Array1.unsafe_set ba (lane + tt) x
        done;
        if not clean then
          for tt = h + 1 to nt - 1 do
            Bigarray.Array1.unsafe_set ba (lane + tt) 0.0
          done;
        t.cluster_sum.((i * nc) + c) <- lane_sum.(width)
      done;
      t.row_total.(i) <- row_sum.(width);
      t.lo.(i) <- l;
      t.hi.(i) <- h;
      Bytes.unsafe_set t.dirty i '\001';
      t.n_dirty <- t.n_dirty + 1
    end
  done;
  t

let check_index t i c tt =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc || tt < 0 || tt >= t.nt then
    invalid_arg "Weights: index out of range"

let check_row t i = if i < 0 || i >= t.n then invalid_arg "Weights: index out of range"

(* Inlined, or every kernel calling it boxes the value it tests. *)
let[@inline] bad_value v = not (Float.is_finite v) || v < 0.0
let reject_value () = invalid_arg "Weights.set: weight must be finite and >= 0"

(* --- dirty-row tracking ------------------------------------------- *)

let mark_touched t i =
  if Bytes.unsafe_get t.dirty i = '\000' then begin
    Bytes.unsafe_set t.dirty i '\001';
    t.n_dirty <- t.n_dirty + 1
  end

let is_touched t i =
  check_row t i;
  Bytes.unsafe_get t.dirty i <> '\000'

(* --- live windows ---------------------------------------------------- *)

(* A writer that does not hand over a total withdraws the last one. *)
let[@inline] forget_total t i = Array.unsafe_set t.sweep_total i Float.nan

let widen t i tt =
  if tt < Array.unsafe_get t.lo i then Array.unsafe_set t.lo i tt;
  if tt > Array.unsafe_get t.hi i then Array.unsafe_set t.hi i tt

let full_window t i =
  Array.unsafe_set t.lo i 0;
  Array.unsafe_set t.hi i (t.nt - 1)

(* --- undo log --------------------------------------------------------- *)

let unsaved t i = t.logging && Bytes.unsafe_get t.saved i = '\000'

(* Append row [i]'s live window, [lo]/[hi] and cache slices to the log.
   Every writer calls this, while a pass is open, before its first
   change to the row in that pass, so the log holds each changed row's
   pre-pass state. *)
let room u ch = if ch < Array.length u.chunks then Bigarray.Array1.dim u.chunks.(ch) else 0

let save_row t i =
  let u = t.undo and nc = t.nc and nt = t.nt in
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  let need = (nc * Int.max 0 (hi - lo + 1)) + nc + 1 in
  let ch = u.chunk in
  if ch >= Array.length u.chunks || u.used + need > Bigarray.Array1.dim u.chunks.(ch) then begin
    (* On to the next chunk, unless nothing is in this one yet. *)
    if u.used > 0 then u.chunk <- u.chunk + 1;
    u.used <- 0;
    if u.chunk >= Array.length u.chunks then
      u.chunks <- Array.append u.chunks (Array.make (max 4 (Array.length u.chunks)) no_chunk);
    if room u u.chunk < need then
      u.chunks.(u.chunk) <-
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max chunk_floats need)
  end;
  let off = u.used in
  let r = 5 * u.count in
  if r + 5 > Array.length u.rows then begin
    let rows = Array.make (max 80 (2 * Array.length u.rows)) 0 in
    Array.blit u.rows 0 rows 0 r;
    u.rows <- rows
  end;
  u.rows.(r) <- i;
  u.rows.(r + 1) <- lo;
  u.rows.(r + 2) <- hi;
  u.rows.(r + 3) <- u.chunk;
  u.rows.(r + 4) <- off;
  let buf = u.chunks.(u.chunk) and ba = t.w in
  let k = ref off in
  for c = 0 to nc - 1 do
    let lane = ((i * nc) + c) * nt in
    for tt = lo to hi do
      Bigarray.Array1.unsafe_set buf !k (Bigarray.Array1.unsafe_get ba (lane + tt));
      incr k
    done
  done;
  for c = 0 to nc - 1 do
    Bigarray.Array1.unsafe_set buf (!k + c) (Array.unsafe_get t.cluster_sum ((i * nc) + c))
  done;
  Bigarray.Array1.unsafe_set buf (!k + nc) (Array.unsafe_get t.row_total i);
  u.used <- off + need;
  u.count <- u.count + 1;
  Bytes.unsafe_set t.saved i '\001'

(* The log's buffers outlive the matrix: the driver builds one matrix
   per region, and each would otherwise fill its log from fresh
   chunks. An open pass borrows its domain's buffers, and a closed one
   hands back whichever of the two holds more chunks, after dropping
   its chunks past the first [store_cap] floats. *)
let spare = Domain.DLS.new_key empty_undo

let within_cap chunks =
  let rec fit k total =
    if k = Array.length chunks then k
    else
      let total = total + Bigarray.Array1.dim chunks.(k) in
      if total > store_cap then k else fit (k + 1) total
  in
  let k = fit 0 0 in
  if k = Array.length chunks then chunks else Array.sub chunks 0 k

let close_log t =
  let u = t.undo in
  for s = 0 to u.count - 1 do
    Bytes.unsafe_set t.saved u.rows.(5 * s) '\000'
  done;
  u.count <- 0;
  u.chunk <- 0;
  u.used <- 0;
  t.logging <- false;
  let d = Domain.DLS.get spare and chunks = within_cap u.chunks in
  if Array.length chunks > Array.length d.chunks then begin
    d.rows <- u.rows;
    d.chunks <- chunks
  end;
  u.rows <- [||];
  u.chunks <- [||]

let begin_pass t =
  close_log t;
  if t.n_dirty > 0 then begin
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    t.n_dirty <- 0
  end;
  let u = t.undo and d = Domain.DLS.get spare in
  u.rows <- d.rows;
  u.chunks <- d.chunks;
  d.rows <- [||];
  d.chunks <- [||];
  t.logging <- true

let commit = close_log

(* Each saved row gets back its window's entries, its window and its
   caches, and loses any handed-over total. Slots outside the saved
   window were +0.0 at the save; those a later write made live (a
   [blend] or [set] widens the window) are zeroed first, so the
   invariant holds again bit for bit. *)
let rollback t =
  let u = t.undo and nc = t.nc and nt = t.nt and ba = t.w in
  for s = 0 to u.count - 1 do
    let r = 5 * s in
    let i = u.rows.(r) and lo = u.rows.(r + 1) and hi = u.rows.(r + 2) in
    let buf = u.chunks.(u.rows.(r + 3)) and k = ref u.rows.(r + 4) in
    let clo = Array.unsafe_get t.lo i and chi = Array.unsafe_get t.hi i in
    for c = 0 to nc - 1 do
      let lane = ((i * nc) + c) * nt in
      for tt = clo to Int.min chi (lo - 1) do
        Bigarray.Array1.unsafe_set ba (lane + tt) 0.0
      done;
      for tt = Int.max clo (hi + 1) to chi do
        Bigarray.Array1.unsafe_set ba (lane + tt) 0.0
      done;
      for tt = lo to hi do
        Bigarray.Array1.unsafe_set ba (lane + tt) (Bigarray.Array1.unsafe_get buf !k);
        incr k
      done
    done;
    for c = 0 to nc - 1 do
      Array.unsafe_set t.cluster_sum ((i * nc) + c) (Bigarray.Array1.unsafe_get buf (!k + c))
    done;
    Array.unsafe_set t.row_total i (Bigarray.Array1.unsafe_get buf (!k + nc));
    forget_total t i;
    Array.unsafe_set t.lo i lo;
    Array.unsafe_set t.hi i hi
  done;
  close_log t

(* --- element access ------------------------------------------------ *)

let raw_get t k = Bigarray.Array1.unsafe_get t.w k

let get t i c tt =
  check_index t i c tt;
  raw_get t (idx t i c tt)

(* Every write funnels its delta into both marginal caches; fused
   kernels below replicate exactly this update sequence. A delta of 0
   (value unchanged) leaves the row clean, so no-op writes — e.g.
   FEASIBLE multiplying feasible lanes by 1.0 — do not dirty rows. *)
let apply_delta t i c delta =
  if delta <> 0.0 then begin
    let ci = (i * t.nc) + c in
    t.cluster_sum.(ci) <- t.cluster_sum.(ci) +. delta;
    t.row_total.(i) <- t.row_total.(i) +. delta;
    mark_touched t i
  end

(* [set] after its checks. It stores even a -0.0 over a +0.0, so the
   window widens over anything but +0.0. *)
let[@inline] store t i c tt v =
  let k = idx t i c tt in
  let old = Bigarray.Array1.unsafe_get t.w k in
  if unsaved t i && Int64.bits_of_float v <> Int64.bits_of_float old then save_row t i;
  Bigarray.Array1.unsafe_set t.w k v;
  forget_total t i;
  if v <> 0.0 || Float.sign_bit v then widen t i tt;
  apply_delta t i c (v -. old)

let set t i c tt v =
  check_index t i c tt;
  if bad_value v then reject_value ();
  store t i c tt v

let scale t i c tt f = set t i c tt (get t i c tt *. f)

(* --- fused row kernels ---------------------------------------------
   Each kernel is one flat loop performing exactly the arithmetic of
   its per-element spelling through [get]/[set]/[scale], unboxed and
   unchecked. The write-and-update-caches body is repeated in each
   rather than shared: without flambda a helper call may box the
   floats in these hottest loops.

   No sweep holds a call. Under ocamlopt one call anywhere in a loop
   body, even one that never runs, spills the loop's floats to the
   stack on every iteration, so:
   - the undo-log save is decided before the sweep, by a call-free
     scan for the first entry the sweep would change; the row is saved
     then, still as the pass found it, which is the state a save at
     that entry would log. A sweep that changes nothing before it
     meets a bad value, or at all, saves nothing;
   - a bad value sets a flag and ends the sweep, and the kernel raises
     after storing what it accumulated, so the entries, the caches, the
     touched flag and the withdrawn total are those a raise at that
     entry left;
   - a lane's cluster sum and the row total are accumulated in locals,
     with the same adds in the same order as the per-entry updates,
     and stored at the end of the lane and of the row. *)

(* The first entry of [k0], [k0 + step], ... up to [k1] that scaling by
   [f] would reject or change: 1 for a change, -1 for a rejection, 0
   if there is neither. *)
let[@inline] scan_scaled (ba : ba1) k0 k1 step f =
  let k = ref k0 and r = ref 0 in
  while !r = 0 && !k <= k1 do
    let old = Bigarray.Array1.unsafe_get ba !k in
    let v = old *. f in
    if bad_value v then r := -1 else if v -. old <> 0.0 then r := 1;
    k := !k + step
  done;
  !r

(* A non-finite factor takes the whole lane: [inf * 0] is NaN. *)
let[@inline] lane_lo f lo = if Float.is_finite f then lo else 0
let[@inline] lane_hi f hi nt = if Float.is_finite f then hi else nt - 1

let scale_cluster t i c f =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc then invalid_arg "Weights: index out of range";
  let ba = t.w in
  let ci = (i * t.nc) + c in
  let base = ci * t.nt in
  let first = base + lane_lo f (Array.unsafe_get t.lo i)
  and last = base + lane_hi f (Array.unsafe_get t.hi i) t.nt in
  forget_total t i;
  if unsaved t i && scan_scaled ba first last 1 f > 0 then save_row t i;
  let s = ref (Array.unsafe_get t.cluster_sum ci) and row = ref (Array.unsafe_get t.row_total i) in
  let changed = ref false and bad = ref false in
  let k = ref first in
  while !k <= last do
    let old = Bigarray.Array1.unsafe_get ba !k in
    let v = old *. f in
    if bad_value v then begin
      bad := true;
      k := last
    end
    else begin
      let delta = v -. old in
      if delta <> 0.0 then begin
        Bigarray.Array1.unsafe_set ba !k v;
        s := !s +. delta;
        row := !row +. delta;
        changed := true
      end
    end;
    incr k
  done;
  Array.unsafe_set t.cluster_sum ci !s;
  Array.unsafe_set t.row_total i !row;
  if !changed then mark_touched t i;
  if !bad then reject_value ()

let scale_time t i tt f =
  if i < 0 || i >= t.n || tt < 0 || tt >= t.nt then invalid_arg "Weights: index out of range";
  let ba = t.w in
  let nc = t.nc and nt = t.nt in
  let cs = t.cluster_sum and cs0 = i * nc in
  let first = (cs0 * nt) + tt in
  let last = first + ((nc - 1) * nt) in
  forget_total t i;
  if unsaved t i && scan_scaled ba first last nt f > 0 then save_row t i;
  let row = ref (Array.unsafe_get t.row_total i) in
  let changed = ref false and bad = ref false in
  let c = ref 0 in
  while !c < nc do
    let k = first + (!c * nt) in
    let old = Bigarray.Array1.unsafe_get ba k in
    let v = old *. f in
    if bad_value v then begin
      bad := true;
      c := nc
    end
    else begin
      let delta = v -. old in
      if delta <> 0.0 then begin
        Bigarray.Array1.unsafe_set ba k v;
        Array.unsafe_set cs (cs0 + !c) (Array.unsafe_get cs (cs0 + !c) +. delta);
        row := !row +. delta;
        changed := true
      end;
      incr c
    end
  done;
  Array.unsafe_set t.row_total i !row;
  if !changed then mark_touched t i;
  if !bad then reject_value ()

(* One factor per cluster applied to a whole row in a single sweep —
   the shape LOAD / COMM / FEASIBLE / PLACEPROP reduce to. Equivalent
   to [scale_cluster t i c factors.(c)] for every [c] in order. The
   sweep also sums the values it leaves in the window, in flat order,
   and hands that total to the gate. A non-finite factor raises at its
   lane's first slot ([inf * 0] and [nan * x] are NaN, [inf * x] is
   infinite), so a sweep that ends took only window slots. *)
let scale_clusters t i factors =
  check_row t i;
  if Array.length factors <> t.nc then
    invalid_arg "Weights.scale_clusters: factor count must equal nc";
  let ba = t.w in
  let nc = t.nc and nt = t.nt in
  let cs = t.cluster_sum in
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  forget_total t i;
  if unsaved t i then begin
    let r = ref 0 and c = ref 0 in
    while !r = 0 && !c < nc do
      let f = Array.unsafe_get factors !c and base = ((i * nc) + !c) * nt in
      r := scan_scaled ba (base + lane_lo f lo) (base + lane_hi f hi nt) 1 f;
      incr c
    done;
    if !r > 0 then save_row t i
  end;
  let row = ref (Array.unsafe_get t.row_total i) and total = ref 0.0 in
  let changed = ref false and bad = ref false in
  let c = ref 0 in
  while !c < nc do
    let f = Array.unsafe_get factors !c in
    let ci = (i * nc) + !c in
    let base = ci * nt in
    let last = base + lane_hi f hi nt in
    let s = ref (Array.unsafe_get cs ci) in
    let k = ref (base + lane_lo f lo) in
    while !k <= last do
      let old = Bigarray.Array1.unsafe_get ba !k in
      let v = old *. f in
      if bad_value v then begin
        bad := true;
        k := last
      end
      else begin
        let delta = v -. old in
        if delta <> 0.0 then begin
          Bigarray.Array1.unsafe_set ba !k v;
          s := !s +. delta;
          row := !row +. delta;
          changed := true;
          total := !total +. v
        end
        else total := !total +. old
      end;
      incr k
    done;
    Array.unsafe_set cs ci !s;
    c := if !bad then nc else !c + 1
  done;
  Array.unsafe_set t.row_total i !row;
  if !changed then mark_touched t i;
  if !bad then reject_value ();
  Array.unsafe_set t.sweep_total i !total

(* [Cs_util.Rng.float rng bound], spelled out: the library call would
   return its draw boxed. A 53-bit draw times 2^-53 is exact, so it is
   the library's division by 2^53 bit for bit, without the divide. *)
let two_to_minus_53 = 0x1p-53

(* NOISE's new values, drawn before its sweep; grown to the largest
   row seen on the domain. *)
let noise_draws = Domain.DLS.new_key (fun () -> ([||] : float array))

(* NOISE's kernel: add a fresh draw [Rng.float rng bound] to every
   positive entry of row [i], in flat (c-major) order. Only positive
   entries draw, and every entry outside the live window is +0.0, so a
   sweep over the window alone makes the same draws in the same order.
   A positive entry lies in the window already, so nothing widens. Like
   [scale_clusters], it hands the gate the total of the window.

   A draw is a call, so the draws come first, each stored as the new
   value of its entry into a per-domain scratch; they stop at the first
   bad value, which is where the per-entry sweep raised, so the
   generator ends in the same state. The same loop finds whether a
   change comes before that, to decide the save. The sweep then reads
   the values back, in the same order, with no call. *)
let add_noise t i rng bound =
  check_row t i;
  let ba = t.w in
  let nc = t.nc and nt = t.nt in
  let cs = t.cluster_sum in
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  forget_total t i;
  let draws =
    let need = nc * Int.max 0 (hi - lo + 1) in
    let d = Domain.DLS.get noise_draws in
    if Array.length d >= need then d
    else begin
      let d = Array.make need 0.0 in
      Domain.DLS.set noise_draws d;
      d
    end
  in
  let m = ref 0 and change = ref false and c = ref 0 in
  while !c < nc do
    let base = ((i * nc) + !c) * nt in
    let k = ref (base + lo) and last = base + hi in
    while !k <= last do
      (* Tested, then read again after the draw, so no float lives
         across the call. *)
      if Bigarray.Array1.unsafe_get ba !k > 0.0 then begin
        let r = Cs_util.Rng.bits53 rng in
        let old = Bigarray.Array1.unsafe_get ba !k in
        let v = old +. (bound *. (float_of_int r *. two_to_minus_53)) in
        Array.unsafe_set draws !m v;
        incr m;
        if bad_value v then begin
          k := last;
          c := nc
        end
        else if v -. old <> 0.0 then change := true
      end;
      incr k
    done;
    incr c
  done;
  if !change && unsaved t i then save_row t i;
  let row = ref (Array.unsafe_get t.row_total i) and total = ref 0.0 in
  let changed = ref false and bad = ref false in
  let j = ref 0 and c = ref 0 in
  while !c < nc do
    let ci = (i * nc) + !c in
    let base = ci * nt in
    let last = base + hi in
    let s = ref (Array.unsafe_get cs ci) in
    let k = ref (base + lo) in
    while !k <= last do
      let old = Bigarray.Array1.unsafe_get ba !k in
      if old > 0.0 then begin
        let v = Array.unsafe_get draws !j in
        incr j;
        if bad_value v then begin
          bad := true;
          k := last
        end
        else begin
          let delta = v -. old in
          if delta <> 0.0 then begin
            Bigarray.Array1.unsafe_set ba !k v;
            s := !s +. delta;
            row := !row +. delta;
            changed := true;
            total := !total +. v
          end
          else total := !total +. old
        end
      end
      else total := !total +. old;
      incr k
    done;
    Array.unsafe_set cs ci !s;
    c := if !bad then nc else !c + 1
  done;
  Array.unsafe_set t.row_total i !row;
  if !changed then mark_touched t i;
  if !bad then reject_value ();
  Array.unsafe_set t.sweep_total i !total

(* Zero every slot outside [lo..hi] in row [i] — INITTIME's shape —
   and narrow the live window to match. Exactly the per-element
   [set t i c tt 0.0] on each slot outside [lo..hi]: in-window elements
   are not visited, and of the two out-of-window stretches only the
   part inside the old live window (the rest is already +0.0), in the
   same ascending order. Like [set], the store is unconditional, so a
   -0.0 becomes +0.0 and the new window's invariant holds. *)
let mask_time_window t i ~lo ~hi =
  check_row t i;
  let ba = t.w in
  let nt = t.nt in
  let cs = t.cluster_sum and rt = t.row_total in
  let wlo = Array.unsafe_get t.lo i and whi = Array.unsafe_get t.hi i in
  if (lo > wlo || hi < whi) && unsaved t i then save_row t i;
  forget_total t i;
  for c = 0 to t.nc - 1 do
    let base = ((i * t.nc) + c) * nt in
    let ci = (i * t.nc) + c in
    let zero tt =
      let k = base + tt in
      let old = Bigarray.Array1.unsafe_get ba k in
      let delta = 0.0 -. old in
      Bigarray.Array1.unsafe_set ba k 0.0;
      if delta <> 0.0 then begin
        Array.unsafe_set cs ci (Array.unsafe_get cs ci +. delta);
        Array.unsafe_set rt i (Array.unsafe_get rt i +. delta);
        mark_touched t i
      end
    in
    for tt = wlo to Int.min lo (whi + 1) - 1 do
      zero tt
    done;
    for tt = Int.max (hi + 1) wlo to whi do
      zero tt
    done
  done;
  Array.unsafe_set t.lo i (Int.max wlo lo);
  Array.unsafe_set t.hi i (Int.min whi hi)

(* --- marginals ------------------------------------------------------ *)

let cluster_weight t i c =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc then invalid_arg "Weights: index out of range";
  t.cluster_sum.((i * t.nc) + c)

(* COMM's neighbour pull, one row at a time: adds [weight] times each
   of row [i]'s cluster marginals to [into.(at + c)], in ascending
   cluster order. A [weight] of exactly 1.0 adds the marginal itself,
   as [1.0 *. x = x]. *)
let add_cluster_marginals t i ~weight ~into ~at =
  check_row t i;
  if at < 0 || at + t.nc > Array.length into then
    invalid_arg "Weights.add_cluster_marginals: target out of range";
  let cs = t.cluster_sum and base = i * t.nc in
  for c = 0 to t.nc - 1 do
    Array.unsafe_set into (at + c)
      (Array.unsafe_get into (at + c) +. (weight *. Array.unsafe_get cs (base + c)))
  done

let row_total t i =
  check_row t i;
  t.row_total.(i)

(* --- normalization -------------------------------------------------- *)

(* Total from the entries themselves, not the incrementally maintained
   caches: floating-point drift can leave a cached total tiny-positive
   while the row has decayed to all zeros, and dividing by that would
   produce a row that still sums to ~0 (or worse, NaN). The fused
   divide is the kernel half of the driver's "apply then renormalize"
   cycle.

   Fully fused: one sweep for the total, then a single divide sweep
   that simultaneously rebuilds both marginal caches. The cache
   arithmetic accumulates element-by-element in the order of a rebuild
   from the entries (lane sums left to right, row total as the sum of
   lane sums), so the caches are bit-identical to such a rebuild. The
   total sweep is skipped when the row's last writer handed over
   [sweep_total]: that writer summed the same entries in the same flat
   order, so it is the same float.

   The divide sweep stores every value, even one equal to the entry it
   replaces: the gate runs [normalize_row] only on touched rows, so a
   changed-or-not test per entry would decide nothing. An equal value
   has the same bits, since a divide by a positive total keeps a zero's
   sign, a NaN is stored either way, and the uniform value is a
   positive normal.

   The same sweep decides the gate's verdict: [normalize_row] returns
   true iff [validate_row] would accept the normalized row. It keeps
   only the least value stored, [low], and the row's lane-order total,
   [row], which the cache needs anyway, and accepts iff
   [low >= -1e-9 && |row - 1| <= 1e-6]. [validate_row] instead tests
   every value (finite, >= -1e-9) and sums them in flat order. The
   verdicts agree:
   - a NaN or an infinity makes [row] NaN or infinite, and a NaN
     fails a comparison, so both reject;
   - a value below -1e-9 fails both tests;
   - otherwise every value is finite and >= -1e-9. Such a row was
     divided by its own flat-order total (or is the uniform reset), so
     its values sum to 1 up to rounding: the flat and lane-order sums
     of its n values each lie within about n * 2^-53 of 1, far inside
     the 1e-6 bound, and both accept.
   Only a failing row is swept again, by [validate_row], which writes
   the message.

   Both sweeps visit only the live window of each lane: the skipped
   entries are +0.0, which adds nothing to any sum, divides to +0.0
   and so would store its own bits, and does not lower [low] below
   its start of +0.0. The uniform reset writes every slot and so
   restores the full window first. *)
let normalize_row t i =
  if unsaved t i then save_row t i;
  let nt = t.nt and nc = t.nc in
  let len = nc * nt in
  let ba = t.w in
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  let total = ref (Array.unsafe_get t.sweep_total i) in
  (* nan: no writer handed a total over. *)
  if !total <> !total then begin
    total := 0.0;
    for c = 0 to nc - 1 do
      let lane = ((i * nc) + c) * nt in
      for k = lane + lo to lane + hi do
        total := !total +. Bigarray.Array1.unsafe_get ba k
      done
    done
  end;
  forget_total t i;
  let total = !total in
  let uniform = total <= 0.0 || not (Float.is_finite total) in
  if uniform then full_window t i;
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  let u = 1.0 /. float_of_int len in
  let cs = t.cluster_sum in
  let row = ref 0.0 and low = ref 0.0 in
  for c = 0 to nc - 1 do
    let lane = ((i * nc) + c) * nt in
    let s = ref 0.0 in
    for k = lane + lo to lane + hi do
      let v = if uniform then u else Bigarray.Array1.unsafe_get ba k /. total in
      Bigarray.Array1.unsafe_set ba k v;
      if v < !low then low := v;
      s := !s +. v
    done;
    Array.unsafe_set cs ((i * nc) + c) !s;
    row := !row +. !s
  done;
  t.row_total.(i) <- !row;
  !low >= -1e-9 && Float.abs (!row -. 1.0) <= 1e-6

(* --- preferences ----------------------------------------------------
   Plain loops over the caches: no closure, and no float crosses a
   call, so none is boxed. Ties within 1e-12 go to the smallest id. *)

let top_cluster t i =
  let cs = t.cluster_sum and base = i * t.nc in
  let best = ref 0 and best_v = ref (Array.unsafe_get cs base) in
  for c = 1 to t.nc - 1 do
    let v = Array.unsafe_get cs (base + c) in
    if v > !best_v +. 1e-12 then begin
      best := c;
      best_v := v
    end
  done;
  !best

(* The best cluster other than [pref]; [nc] must be at least 2. *)
let second_cluster t i pref =
  let cs = t.cluster_sum and base = i * t.nc in
  let best = ref (if pref = 0 then 1 else 0) in
  for c = 0 to t.nc - 1 do
    if
      c <> pref
      && Array.unsafe_get cs (base + c) > Array.unsafe_get cs (base + !best) +. 1e-12
    then best := c
  done;
  !best

let preferred_cluster t i =
  check_row t i;
  top_cluster t i

(* The driver's churn count, one loop over the touched rows: under
   [-opaque] a [preferred_cluster] and an [is_touched] per row are each
   a call out of line. *)
let refresh_preferred t prefs =
  if Array.length prefs < t.n then
    invalid_arg "Weights.refresh_preferred: prefs shorter than n";
  let changed = ref 0 in
  if t.n_dirty > 0 then
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.dirty i <> '\000' then begin
        let c = top_cluster t i in
        if c <> Array.unsafe_get prefs i then begin
          incr changed;
          Array.unsafe_set prefs i c
        end
      end
    done;
  !changed

(* [preferred_time]'s slot sums; grown to the largest [nt] seen on the
   domain. *)
let slot_sums = Domain.DLS.new_key (fun () -> ([||] : float array))

(* Slots outside the window have marginal +0.0, which never beats a
   best of at least +0.0 (slot 0's, when the window starts later), so
   only the window is summed. The sums are taken lane by lane, each
   lane a contiguous run, but every slot's sum still starts at +0.0 and
   adds the clusters in ascending order, as a per-slot sum over the
   clusters would. *)
let preferred_time t i =
  check_row t i;
  let nc = t.nc and nt = t.nt and ba = t.w in
  let lo = Array.unsafe_get t.lo i and hi = Array.unsafe_get t.hi i in
  let sums =
    let s = Domain.DLS.get slot_sums in
    if Array.length s >= nt then s
    else begin
      let s = Array.make nt 0.0 in
      Domain.DLS.set slot_sums s;
      s
    end
  in
  for tt = lo to hi do
    Array.unsafe_set sums tt 0.0
  done;
  (* Four lanes per sweep, added in order, so each slot's partial sum
     is loaded and stored once per four entries. *)
  let c = ref 0 in
  while !c + 3 < nc do
    let l0 = ((i * nc) + !c) * nt in
    let l1 = l0 + nt in
    let l2 = l1 + nt in
    let l3 = l2 + nt in
    for tt = lo to hi do
      Array.unsafe_set sums tt
        (Array.unsafe_get sums tt
         +. Bigarray.Array1.unsafe_get ba (l0 + tt)
         +. Bigarray.Array1.unsafe_get ba (l1 + tt)
         +. Bigarray.Array1.unsafe_get ba (l2 + tt)
         +. Bigarray.Array1.unsafe_get ba (l3 + tt))
    done;
    c := !c + 4
  done;
  while !c < nc do
    let lane = ((i * nc) + !c) * nt in
    for tt = lo to hi do
      Array.unsafe_set sums tt
        (Array.unsafe_get sums tt +. Bigarray.Array1.unsafe_get ba (lane + tt))
    done;
    incr c
  done;
  let best = ref 0 and best_v = ref 0.0 in
  for tt = lo to hi do
    let v = Array.unsafe_get sums tt in
    if tt = 0 then best_v := v
    else if v > !best_v +. 1e-12 then begin
      best := tt;
      best_v := v
    end
  done;
  !best

(* A fully converged row has no runner-up mass, which used to make
   [confidence] return [infinity] — a value that poisons any telemetry
   mean/percentile it is averaged into (inf + x = inf, inf - inf = nan).
   It is now clamped to this documented finite sentinel; every caller
   comparing against a threshold behaves the same, and "no runner-up"
   is exactly [confidence = confidence_sentinel]. *)
let confidence_sentinel = 1e9

(* Inlined, or [confidences] would box every row's ratio. *)
let[@inline] row_confidence t i =
  if t.nc < 2 then confidence_sentinel
  else begin
    let cs = t.cluster_sum and base = i * t.nc in
    let pref = top_cluster t i in
    let top = Array.unsafe_get cs (base + pref)
    and second = Array.unsafe_get cs (base + second_cluster t i pref) in
    if second <= 0.0 then confidence_sentinel
    else Float.min (top /. second) confidence_sentinel
  end

let confidence t i =
  if t.nc >= 2 then check_row t i;
  row_confidence t i

let confidence_into t i into =
  check_row t i;
  if i >= Array.length into then invalid_arg "Weights.confidence_into: target out of range";
  Array.unsafe_set into i (row_confidence t i)

let confidences t into =
  if Array.length into < t.n then invalid_arg "Weights.confidences: target shorter than n";
  for i = 0 to t.n - 1 do
    Array.unsafe_set into i (row_confidence t i)
  done

(* The claim order, extraction's and PATHPROP's. Its key: an unsigned
   64-bit integer whose ascending order is descending [Float.compare]
   order. [Float.compare] ranks a NaN below every float and -0.0 equal
   to +0.0, so a NaN maps to the largest key and -0.0 first becomes
   +0.0. A non-negative float's bits order like the float and a
   negative one's reversed, so flipping the sign bit of the first, or
   every bit of the second, gives an ascending key, which is then
   complemented. *)
let[@inline] claim_key x =
  if x <> x then -1L
  else
    let x = x +. 0.0 in
    let b = Int64.bits_of_float x in
    if x >= 0.0 then Int64.lognot (Int64.logxor b Int64.min_int) else b

let[@inline] digit key p = Int64.to_int (Int64.shift_right_logical key (8 * p)) land 255

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A stable LSD radix sort of the picked rows, ascending ids first,
   on [claim_key], eight bits per pass, least significant first. The
   keys are computed once and travel with their ids, 8 bytes each. One
   sweep counts every digit; a digit that every key shares is skipped,
   as a pass on it would keep the order. Stable on ids that start
   ascending, it orders exactly as the comparator "descending
   confidence, ties to the lower id". *)
let claim_order conf picked =
  let n = Array.length picked in
  if Array.length conf < n then invalid_arg "Weights.claim_order: conf shorter than picked";
  let m = ref 0 in
  Array.iter (fun b -> if b then incr m) picked;
  let m = !m in
  let ids = ref (Array.make m 0) and ids' = ref (Array.make m 0) in
  let keys = ref (Bytes.create (8 * m)) and keys' = ref (Bytes.create (8 * m)) in
  let counts = Array.make (8 * 256) 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get picked i then begin
      let key = claim_key (Array.unsafe_get conf i) in
      Array.unsafe_set !ids !j i;
      set64 !keys (8 * !j) key;
      for p = 0 to 7 do
        let b = (p * 256) + digit key p in
        Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
      done;
      incr j
    end
  done;
  for p = 0 to 7 do
    let off = p * 256 in
    let shared = ref false in
    for b = off to off + 255 do
      if Array.unsafe_get counts b = m then shared := true
    done;
    if not !shared then begin
      (* Each digit's count becomes the first slot of its run. *)
      let start = ref 0 in
      for b = off to off + 255 do
        let c = Array.unsafe_get counts b in
        Array.unsafe_set counts b !start;
        start := !start + c
      done;
      let si = !ids and sk = !keys and di = !ids' and dk = !keys' in
      for j = 0 to m - 1 do
        let key = get64 sk (8 * j) in
        let b = off + digit key p in
        let at = Array.unsafe_get counts b in
        Array.unsafe_set di at (Array.unsafe_get si j);
        set64 dk (8 * at) key;
        Array.unsafe_set counts b (at + 1)
      done;
      ids := di;
      ids' := si;
      keys := dk;
      keys' := sk
    end
  done;
  !ids

let blend t ~dst ~src ~keep =
  if not (keep >= 0.0 && keep <= 1.0) then invalid_arg "Weights.blend: keep must be in [0,1]";
  check_row t dst;
  check_row t src;
  if dst <> src then begin
    (* One sweep writes the row and rebuilds its marginal caches,
       accumulating in a from-entries rebuild's order as
       [normalize_row] does. Outside the hull of the two live windows
       both rows are +0.0, and so is their blend, so the sweep and
       [dst]'s new window are that hull.

       Four cluster lanes go per sweep, each into its own sum, which
       adds that lane's entries in ascending slot order as a one-lane
       sweep would; the row total then adds the four sums in cluster
       order. The four add chains are independent, so they overlap. A
       flat-order total would be one chain through every entry, so the
       blend withdraws the row's total instead of handing one over: a
       row takes about three blends per pass, and the gate sums it
       once. The sweep's index [k] walks [dst]'s lane; [src]'s lane is
       [gap] further on, and the next three lanes [nt], [2 nt] and
       [3 nt], so few indices are live and none is spilled. *)
    let nc = t.nc and nt = t.nt in
    let ba = t.w in
    let drop = 1.0 -. keep in
    let cs = t.cluster_sum in
    if unsaved t dst then save_row t dst;
    forget_total t dst;
    let lo = Int.min (Array.unsafe_get t.lo dst) (Array.unsafe_get t.lo src)
    and hi = Int.max (Array.unsafe_get t.hi dst) (Array.unsafe_get t.hi src) in
    Array.unsafe_set t.lo dst lo;
    Array.unsafe_set t.hi dst hi;
    let row = ref 0.0 and c = ref 0 in
    let gap = (src - dst) * nc * nt and nt2 = 2 * nt and nt3 = 3 * nt in
    while !c + 3 < nc do
      let ci = (dst * nc) + !c in
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      for k = (ci * nt) + lo to (ci * nt) + hi do
        let v0 =
          (keep *. Bigarray.Array1.unsafe_get ba k)
          +. (drop *. Bigarray.Array1.unsafe_get ba (k + gap))
        in
        Bigarray.Array1.unsafe_set ba k v0;
        a0 := !a0 +. v0;
        let v1 =
          (keep *. Bigarray.Array1.unsafe_get ba (k + nt))
          +. (drop *. Bigarray.Array1.unsafe_get ba (k + nt + gap))
        in
        Bigarray.Array1.unsafe_set ba (k + nt) v1;
        a1 := !a1 +. v1;
        let v2 =
          (keep *. Bigarray.Array1.unsafe_get ba (k + nt2))
          +. (drop *. Bigarray.Array1.unsafe_get ba (k + nt2 + gap))
        in
        Bigarray.Array1.unsafe_set ba (k + nt2) v2;
        a2 := !a2 +. v2;
        let v3 =
          (keep *. Bigarray.Array1.unsafe_get ba (k + nt3))
          +. (drop *. Bigarray.Array1.unsafe_get ba (k + nt3 + gap))
        in
        Bigarray.Array1.unsafe_set ba (k + nt3) v3;
        a3 := !a3 +. v3
      done;
      Array.unsafe_set cs ci !a0;
      Array.unsafe_set cs (ci + 1) !a1;
      Array.unsafe_set cs (ci + 2) !a2;
      Array.unsafe_set cs (ci + 3) !a3;
      row := !row +. !a0 +. !a1 +. !a2 +. !a3;
      c := !c + 4
    done;
    while !c < nc do
      let ci = (dst * nc) + !c in
      let s = ref 0.0 in
      for k = (ci * nt) + lo to (ci * nt) + hi do
        let v =
          (keep *. Bigarray.Array1.unsafe_get ba k)
          +. (drop *. Bigarray.Array1.unsafe_get ba (k + gap))
        in
        Bigarray.Array1.unsafe_set ba k v;
        s := !s +. v
      done;
      Array.unsafe_set cs ci !s;
      row := !row +. !s;
      incr c
    done;
    t.row_total.(dst) <- !row;
    mark_touched t dst
  end

(* --- copy ------------------------------------------------------------ *)

let copy t =
  let w = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Bigarray.Array1.dim t.w) in
  Bigarray.Array1.blit t.w w;
  {
    t with
    w;
    cluster_sum = Array.copy t.cluster_sum;
    row_total = Array.copy t.row_total;
    sweep_total = Array.copy t.sweep_total;
    dirty = Bytes.copy t.dirty;
    lo = Array.copy t.lo;
    hi = Array.copy t.hi;
    logging = false;
    saved = Bytes.make (Bytes.length t.saved) '\000';
    undo = empty_undo ();
    store = w;
  }

(* --- validation ----------------------------------------------------- *)

(* The gate's message for a row that fails its fused check: one
   unchecked sweep over the row's contiguous slice. *)
let validate_row t i err =
  let total = ref 0.0 in
  let len = t.nc * t.nt in
  let base = i * len in
  let bad v =
    if not (Float.is_finite v) then begin
      err := Some (Printf.sprintf "row %d has non-finite weight %g" i v);
      true
    end
    else if v < -.1e-9 then begin
      err := Some (Printf.sprintf "row %d has negative weight %g" i v);
      true
    end
    else false
  in
  (try
     for k = base to base + len - 1 do
       let v = Bigarray.Array1.unsafe_get t.w k in
       if Float.is_finite v && v >= -.1e-9 then total := !total +. v
       else if bad v then raise Exit
     done;
     if Float.abs (!total -. 1.0) > 1e-6 then begin
       err := Some (Printf.sprintf "row %d sums to %g, expected 1" i !total);
       raise Exit
     end
   with Exit -> ())

(* The driver's per-pass gate: renormalize every row written since
   [begin_pass] and check it, one [normalize_row] sweep per row.
   Rows a pass never wrote keep their exact bits (re-dividing every
   row by a total within one ulp of 1.0 each pass would churn the low
   bits of untouched rows for nothing), and need no check: they passed
   the previous gate and have not changed since. A row failing the
   fused check is re-read by [validate_row], which writes every
   message; the first failing row in ascending order is reported, and
   every dirty row is normalized either way. *)
let normalize_validate_touched t =
  let err = ref None in
  if t.n_dirty > 0 then
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.dirty i <> '\000' && (not (normalize_row t i)) && !err = None
      then validate_row t i err
    done;
  match !err with None -> Ok () | Some e -> Error e

module Inspect = struct
  let window t i =
    check_row t i;
    (t.lo.(i), t.hi.(i))

  let retained_floats () =
    Array.fold_left
      (fun total c -> total + Bigarray.Array1.dim c)
      (Bigarray.Array1.dim !(Domain.DLS.get spare_store))
      (Domain.DLS.get spare).chunks

  let store_cap = store_cap

  let set_unchecked t i c tt v =
    check_index t i c tt;
    store t i c tt v

  let check_invariants t =
    let problems = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    for i = 0 to t.n - 1 do
      let total = ref 0.0 in
      for c = 0 to t.nc - 1 do
        for tt = 0 to t.nt - 1 do
          let v = raw_get t (idx t i c tt) in
          if v < -.1e-9 || v > 1.0 +. 1e-9 then fail "W(%d,%d,%d)=%g out of [0,1]" i c tt v;
          total := !total +. v
        done
      done;
      if Float.abs (!total -. 1.0) > 1e-6 then fail "row %d sums to %g, expected 1" i !total;
      for c = 0 to t.nc - 1 do
        let s = ref 0.0 in
        for tt = 0 to t.nt - 1 do
          s := !s +. raw_get t (idx t i c tt)
        done;
        if Float.abs (!s -. cluster_weight t i c) > 1e-6 then
          fail "stale cluster sum at (%d,%d)" i c
      done;
      if Float.abs (!total -. row_total t i) > 1e-6 then
        fail "stale row total at %d (%g cached vs %g)" i (row_total t i) !total;
      (* The live window: every entry outside it is +0.0. *)
      let lo = t.lo.(i) and hi = t.hi.(i) in
      if lo < 0 || hi >= t.nt then fail "row %d window %d..%d out of range" i lo hi;
      for tt = 0 to t.nt - 1 do
        if tt < lo || tt > hi then
          for c = 0 to t.nc - 1 do
            let v = raw_get t (idx t i c tt) in
            if Int64.bits_of_float v <> 0L then
              fail "W(%d,%d,%d)=%g outside window %d..%d" i c tt v lo hi
          done
      done
    done;
    match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
end
