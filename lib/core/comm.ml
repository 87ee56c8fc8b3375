(* Gather row [i]'s coupled instructions into [nb]: the direct
   neighbours first (preds, then succs, every list entry), then — with
   [grand] — the grand-neighbours not already seen, in *reverse*
   discovery order. The pulls are float sums, so this order is part of
   the result: it is the one test/golden/schedules.txt was produced
   with. [stamp.(k) = i] marks [k] as seen for row [i], so no per-row
   set is allocated. Returns the number of direct neighbours and the
   total count. *)
let gather graph ~grand ~stamp ~nb i =
  let len = ref 0 in
  let push k =
    nb.(!len) <- k;
    incr len
  in
  List.iter push (Cs_ddg.Graph.preds graph i);
  List.iter push (Cs_ddg.Graph.succs graph i);
  let direct = !len in
  if grand && direct > 0 then begin
    stamp.(i) <- i;
    for d = 0 to direct - 1 do
      stamp.(nb.(d)) <- i
    done;
    let visit k =
      if stamp.(k) <> i then begin
        stamp.(k) <- i;
        push k
      end
    in
    for d = 0 to direct - 1 do
      let j = nb.(d) in
      List.iter visit (Cs_ddg.Graph.preds graph j);
      List.iter visit (Cs_ddg.Graph.succs graph j)
    done;
    (* Reverse the grand block in place. *)
    let lo = ref direct and hi = ref (!len - 1) in
    while !lo < !hi do
      let x = nb.(!lo) in
      nb.(!lo) <- nb.(!hi);
      nb.(!hi) <- x;
      incr lo;
      decr hi
    done
  end;
  (direct, !len)

let apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ctx w =
  let graph = Context.graph ctx in
  let n = Weights.n w and nc = Weights.nc w in
  (* A DAG's neighbour lists hold no duplicates and no node is both a
     pred and a succ, so one row's coupled set has fewer than n ids. *)
  let stamp = Array.make n (-1) and nb = Array.make (max n 1) 0 in
  if per_slot then begin
    (* The paper's literal formula: couple on identical (c, t) slots,
       read from a snapshot so the pass is order-independent. *)
    let snap = Weights.copy w in
    for i = 0 to n - 1 do
      let direct, len = gather graph ~grand ~stamp ~nb i in
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
       left alone. *)
    let factors = Array.make (n * nc) 0.0 and coupled = Array.make n false in
    for i = 0 to n - 1 do
      let direct, len = gather graph ~grand ~stamp ~nb i in
      coupled.(i) <- len > 0;
      if len > 0 then
        for c = 0 to nc - 1 do
          let pull = ref 0.0 in
          for k = 0 to direct - 1 do
            pull := !pull +. Weights.cluster_weight w nb.(k) c
          done;
          for k = direct to len - 1 do
            pull := !pull +. (grand_weight *. Weights.cluster_weight w nb.(k) c)
          done;
          factors.((i * nc) + c) <- eps +. !pull
        done
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

let pass ?(eps = 1e-4) ?(grand = true) ?(grand_weight = 0.5) ?(per_slot = false)
    ?(strengthen_preferred = 2.0) () =
  Pass.make
    ~params:
      [ ("eps", eps); ("grand", if grand then 1.0 else 0.0);
        ("grand_weight", grand_weight); ("per_slot", if per_slot then 1.0 else 0.0);
        ("strengthen_preferred", strengthen_preferred) ]
    ~name:"COMM" ~kind:Pass.Space
    (apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred)
