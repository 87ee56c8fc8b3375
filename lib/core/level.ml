(* Per-application scratch, sized for the largest group and reused by
   every group, so a pass application allocates it once. Slot [k] holds
   the [k]-th unassigned instruction of the current group, in group
   order:

   - [row.(k)]: its distance row, fetched on first use ([[||]] before);
   - [dist.(k * nc + b)]: its minimum distance to a member of bin [b]
     ([max_int] while the bin is empty or unreachable);
   - [closest.(k)]: its minimum distance to any non-empty bin.

   Both distances only shrink as members join bins, so each join updates
   them in O(U) instead of rescanning every bin member. *)
type scratch = {
  ids : int array;
  live : Bytes.t;
  rows : int array array;
  dist : int array;
  closest : int array;
}

let scratch ~size ~nc =
  {
    ids = Array.make size 0;
    live = Bytes.make size '\000';
    rows = Array.make size [||];
    dist = Array.make (size * nc) max_int;
    closest = Array.make size max_int;
  }

let distribute_group ctx w s ~granularity ~confidence_threshold ~boost group =
  let a = ctx.Context.analysis in
  let nc = Weights.nc w in
  let count = ref 0 and seeds = ref [] in
  List.iter
    (fun i ->
      if Weights.confidence w i >= confidence_threshold then
        seeds := (i, Weights.preferred_cluster w i) :: !seeds
      else begin
        s.ids.(!count) <- i;
        incr count
      end)
    group;
  let count = !count in
  Bytes.fill s.live 0 count '\001';
  Array.fill s.rows 0 count [||];
  Array.fill s.dist 0 (count * nc) max_int;
  Array.fill s.closest 0 count max_int;
  (* Member [m] joins bin [b]. Rows are fetched on first use, so an
     instruction's distance row is computed (and cached by the
     analysis) only once some bin is non-empty. *)
  let join m b =
    for k = 0 to count - 1 do
      if Bytes.unsafe_get s.live k <> '\000' then begin
        let row =
          match s.rows.(k) with
          | [||] ->
            let row = Cs_ddg.Analysis.distance_row a s.ids.(k) in
            s.rows.(k) <- row;
            row
          | row -> row
        in
        let d = row.(m) in
        if d < s.dist.((k * nc) + b) then s.dist.((k * nc) + b) <- d;
        if d < s.closest.(k) then s.closest.(k) <- d
      end
    done
  in
  List.iter (fun (i, c) -> join i c) !seeds;
  let next_bin = ref 0 in
  for _ = 1 to count do
    let b = !next_bin in
    next_bin := (!next_bin + 1) mod nc;
    (* Candidates far from every existing bin get distributed first; when
       none qualify, everything remaining is a candidate. The bin takes
       the first candidate farthest from it. *)
    let far = ref (-1) and far_d = ref 0 and any = ref (-1) and any_d = ref 0 in
    for k = 0 to count - 1 do
      if Bytes.unsafe_get s.live k <> '\000' then begin
        let d = s.dist.((k * nc) + b) in
        if !any < 0 || d > !any_d then begin
          any := k;
          any_d := d
        end;
        if s.closest.(k) > granularity && (!far < 0 || d > !far_d) then begin
          far := k;
          far_d := d
        end
      end
    done;
    let k = if !far >= 0 then !far else !any in
    let i = s.ids.(k) in
    Bytes.set s.live k '\000';
    join i b;
    Weights.scale_cluster w i b boost
  done

let apply ~stride ~granularity ~confidence_threshold ~boost ctx w =
  let a = ctx.Context.analysis in
  let deepest = Cs_ddg.Analysis.max_depth a in
  let groups = ref [] in
  let lbase = ref 0 in
  while !lbase <= deepest do
    let group = ref [] in
    for i = Weights.n w - 1 downto 0 do
      let d = Cs_ddg.Analysis.depth a i in
      if d >= !lbase && d < !lbase + stride then group := i :: !group
    done;
    if !group <> [] then groups := !group :: !groups;
    lbase := !lbase + stride
  done;
  let size = List.fold_left (fun m g -> max m (List.length g)) 0 !groups in
  let s = scratch ~size ~nc:(Weights.nc w) in
  List.iter
    (distribute_group ctx w s ~granularity ~confidence_threshold ~boost)
    (List.rev !groups)

(* [apply] advances through depth groups by [stride]; below 1 it would
   never finish. Distances are at least 1, so every granularity below 1
   acts like 0. A bin may be a preplaced row's home: the boost stays
   positive. *)
let stride = Pass.int "stride" ~default:4 ~domain:(1, Pass.int_cap) ~tune:(1, 8)
let granularity = Pass.int "granularity" ~default:2 ~domain:(0, Pass.int_cap) ~tune:(1, 6)

let confidence_threshold =
  Pass.float "confidence_threshold" ~default:2.0
    ~domain:Pass.confidence_domain ~tune:(1.0, 4.0)

let boost = Pass.float "boost" ~default:2.5 ~domain:Pass.factor_domain ~tune:(1.0, 8.0)

let decl =
  Pass.declare ~name:"LEVEL" ~kind:Pass.Space
    [ stride; granularity; confidence_threshold; boost ]
    (fun args ->
      apply ~stride:(Pass.get_int args stride) ~granularity:(Pass.get_int args granularity)
        ~confidence_threshold:(Pass.get args confidence_threshold)
        ~boost:(Pass.get args boost))

let pass ?stride:s ?granularity:g ?confidence_threshold:c ?boost:b () =
  Pass.build decl
    [ Pass.set_int stride s; Pass.set_int granularity g; Pass.set confidence_threshold c;
      Pass.set boost b ]
