(* [nb.(len) ..] gets every id of a neighbour list, in list order;
   returns the new length. *)
let rec push_all nb len = function
  | [] -> len
  | k :: rest ->
    nb.(len) <- k;
    push_all nb (len + 1) rest

(* As [push_all], for the ids not yet seen for row [i], which it marks
   as seen. *)
let rec visit_all stamp nb i len = function
  | [] -> len
  | k :: rest ->
    if stamp.(k) <> i then begin
      stamp.(k) <- i;
      nb.(len) <- k;
      visit_all stamp nb i (len + 1) rest
    end
    else visit_all stamp nb i len rest

(* Gather row [i]'s coupled instructions into [nb]: the direct
   neighbours first (preds, then succs, every list entry), then — with
   [grand] — the grand-neighbours not already seen, in *reverse*
   discovery order. The pulls are float sums, so this order is part of
   the result: it is the one test/golden/schedules.txt was produced
   with. [stamp.(k) = i] marks [k] as seen for row [i], so no per-row
   set is allocated. Returns the total count, and the number of direct
   neighbours in [n_direct.(0)]; the walks are top-level recursions, so
   a row allocates nothing. *)
let gather graph ~grand ~stamp ~nb ~n_direct i =
  let len = push_all nb 0 (Cs_ddg.Graph.preds graph i) in
  let len = push_all nb len (Cs_ddg.Graph.succs graph i) in
  n_direct.(0) <- len;
  if grand && len > 0 then begin
    stamp.(i) <- i;
    for d = 0 to len - 1 do
      stamp.(nb.(d)) <- i
    done;
    let total = ref len in
    for d = 0 to len - 1 do
      let j = nb.(d) in
      total := visit_all stamp nb i !total (Cs_ddg.Graph.preds graph j);
      total := visit_all stamp nb i !total (Cs_ddg.Graph.succs graph j)
    done;
    (* Reverse the grand block in place. *)
    let lo = ref len and hi = ref (!total - 1) in
    while !lo < !hi do
      let x = nb.(!lo) in
      nb.(!lo) <- nb.(!hi);
      nb.(!hi) <- x;
      incr lo;
      decr hi
    done;
    !total
  end
  else len

let apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ctx w =
  let graph = Context.graph ctx in
  let n = Weights.n w and nc = Weights.nc w in
  (* A DAG's neighbour lists hold no duplicates and no node is both a
     pred and a succ, so one row's coupled set has fewer than n ids. *)
  let stamp = Array.make n (-1) and nb = Array.make (max n 1) 0 and n_direct = [| 0 |] in
  if per_slot then begin
    (* The paper's literal formula: couple on identical (c, t) slots,
       read from a snapshot so the pass is order-independent. *)
    let snap = Weights.copy w in
    for i = 0 to n - 1 do
      let len = gather graph ~grand ~stamp ~nb ~n_direct i in
      let direct = n_direct.(0) in
      if len > 0 then
        for c = 0 to nc - 1 do
          for tt = 0 to Weights.nt w - 1 do
            let pull = ref 0.0 in
            for k = 0 to direct - 1 do
              pull := !pull +. Weights.get snap nb.(k) c tt
            done;
            for k = direct to len - 1 do
              pull := !pull +. (grand_weight *. Weights.get snap nb.(k) c tt)
            done;
            Weights.scale w i c tt (eps +. !pull)
          done
        done
    done
  end
  else begin
    (* Space-marginal coupling: dependent instructions execute at
       *different* times, so the spatial pull is the neighbours' whole
       cluster marginal, applied uniformly across feasible slots. Every
       row's factors are gathered first from [w]'s pre-pass marginals
       (O(1) each off the cache), which is what makes the pass
       order-independent without a snapshot of the matrix; then each
       row is scaled in one fused sweep. A row without neighbours is
       left alone. Each cluster's pull sums, from 0 and in [nb]'s
       order, the direct neighbours' marginals (weighted by exactly
       1.0, which adds the marginal itself), then the grand-neighbours'
       times [grand_weight]. *)
    let factors = Array.make (n * nc) 0.0 and coupled = Array.make n false in
    for i = 0 to n - 1 do
      let len = gather graph ~grand ~stamp ~nb ~n_direct i in
      let direct = n_direct.(0) in
      coupled.(i) <- len > 0;
      if len > 0 then begin
        let at = i * nc in
        for k = 0 to len - 1 do
          let weight = if k < direct then 1.0 else grand_weight in
          Weights.add_cluster_marginals w nb.(k) ~weight ~into:factors ~at
        done;
        for c = at to at + nc - 1 do
          factors.(c) <- eps +. factors.(c)
        done
      end
    done;
    let row = Array.make nc 0.0 in
    for i = 0 to n - 1 do
      if coupled.(i) then begin
        Array.blit factors (i * nc) row 0 nc;
        Weights.scale_clusters w i row
      end
    done
  end;
  if strengthen_preferred > 1.0 then
    for i = 0 to n - 1 do
      let pc = Weights.preferred_cluster w i and pt = Weights.preferred_time w i in
      Weights.scale w i pc pt strengthen_preferred
    done

(* [eps] is what keeps a cluster alive when no neighbour weighs on it,
   a preplaced row's home included, so it stays positive. The pull
   weights and the preferred-slot factor share the factor cap, which
   keeps the products finite; a [strengthen_preferred] of 1 is off. *)
let eps =
  Pass.float ~log_scale:true "eps" ~default:1e-4 ~domain:Pass.factor_domain
    ~tune:(1e-6, 1e-2)

let grand = Pass.bool "grand" ~default:true
let grand_weight =
  Pass.float "grand_weight" ~default:0.5 ~domain:(0.0, Pass.factor_max) ~tune:(0.1, 1.0)

let per_slot = Pass.bool "per_slot" ~default:false

let strengthen_preferred =
  Pass.float "strengthen_preferred" ~default:2.0 ~domain:(1.0, Pass.factor_max) ~tune:(1.0, 4.0)

let decl =
  Pass.declare ~name:"COMM" ~kind:Pass.Space
    [ eps; grand; grand_weight; per_slot; strengthen_preferred ]
    (fun args ->
      apply ~eps:(Pass.get args eps) ~grand:(Pass.get_bool args grand)
        ~grand_weight:(Pass.get args grand_weight) ~per_slot:(Pass.get_bool args per_slot)
        ~strengthen_preferred:(Pass.get args strengthen_preferred))

let pass ?eps:e ?grand:g ?grand_weight:gw ?per_slot:ps ?strengthen_preferred:sp () =
  Pass.build decl
    [ Pass.set eps e; Pass.set_bool grand g; Pass.set grand_weight gw;
      Pass.set_bool per_slot ps; Pass.set strengthen_preferred sp ]
