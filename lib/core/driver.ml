type result = {
  assignment : int array;
  preferred_slot : int array;
  trace : Trace.t;
  weights : Weights.t;
  context : Context.t;
  timed_out : bool;
}

let assignment_of_weights ?(cap_factor = 1.1) ctx w =
  let n = Weights.n w and nc = Weights.nc w in
  let machine = ctx.Context.machine in
  let graph = Context.graph ctx in
  let assignment = Array.make n (-1) in
  let load = Array.make nc 0 in
  (* Hard constraints first: preplaced instructions go home and count
     toward their cluster's load. *)
  let movable = Array.make n false in
  for i = n - 1 downto 0 do
    let ins = Cs_ddg.Graph.instr graph i in
    match ins.Cs_ddg.Instr.preplace with
    | Some c
      when Cs_machine.Machine.can_execute machine ~cluster:c ins.Cs_ddg.Instr.op
           || not
                (Cs_ddg.Opcode.is_memory ins.Cs_ddg.Instr.op
                && machine.Cs_machine.Machine.remote_mem_penalty > 0) ->
      assignment.(i) <- c;
      load.(c) <- load.(c) + 1
    | Some _ ->
      (* Home cluster lost the FUs for this memory op but the machine
         supports remote access: let it claim a surviving cluster like
         a movable instruction (the scheduler charges the penalty). *)
      movable.(i) <- true
    | None -> movable.(i) <- true
  done;
  (* Balanced extraction: most-confident instructions claim their
     preferred cluster first; once a cluster is at capacity the next
     preference is used. This keeps the final schedule occupancy-bound
     rather than letting one popular cluster serialize the region. *)
  (* No schedule can beat max(n / clusters, CPL) cycles, so clusters may
     hold up to ~CPL instructions of a serial region without cost; only
     beyond that does a popular cluster become the bottleneck. The
     per-cluster floor divides by the clusters that still have live
     functional units, so a degraded machine doesn't under-cap. *)
  let usable =
    let k = ref 0 in
    for c = 0 to nc - 1 do
      if Cs_machine.Machine.is_cluster_alive machine c then incr k
    done;
    max 1 !k
  in
  let floor_bound =
    max
      (float_of_int n /. float_of_int usable)
      (float_of_int (Cs_ddg.Analysis.cpl ctx.Context.analysis))
  in
  let cap = max 1 (int_of_float (ceil (cap_factor *. floor_bound))) in
  (* Confidences are read once per row, unboxed. *)
  let conf = Array.make n 0.0 in
  Weights.confidences w conf;
  let order = Weights.claim_order conf movable in
  (* Each row's cluster marginals, read unboxed: adding each to +0.0
     gives the marginal itself. *)
  let marginals = Array.make nc 0.0 in
  Array.iter
    (fun i ->
      let op = (Cs_ddg.Graph.instr graph i).Cs_ddg.Instr.op in
      Array.fill marginals 0 nc 0.0;
      Weights.add_cluster_marginals w i ~weight:1.0 ~into:marginals ~at:0;
      (* Feasibility is a hard constraint: a cluster whose surviving FUs
         cannot execute the opcode is never a candidate, however strong
         its weights. One ascending sweep keeps the old ranked-list
         semantics: among clusters with spare capacity the strongest
         cluster-marginal wins with ties to the smallest id; if all are
         saturated, spill onto the least-loaded feasible cluster. *)
      let chosen = ref (-1) in
      let chosen_w = ref neg_infinity in
      let least = ref (-1) in
      for c = 0 to nc - 1 do
        if Cs_machine.Machine.can_execute machine ~cluster:c op then begin
          if !least < 0 || load.(c) < load.(!least) then least := c;
          if load.(c) < cap then begin
            let cw = marginals.(c) in
            if cw > !chosen_w then begin
              chosen := c;
              chosen_w := cw
            end
          end
        end
      done;
      if !least < 0 then
        Cs_resil.Error.infeasible
          (Printf.sprintf "instr %d (%s): no cluster can execute it" i
             (Cs_ddg.Opcode.to_string op));
      let target = if !chosen >= 0 then !chosen else !least in
      assignment.(i) <- target;
      load.(target) <- load.(target) + 1)
    order;
  assignment

(* Quarantine gate, run after a pass: renormalize the rows it wrote,
   then the matrix must still be a sane preference distribution, and
   preplaced rows must keep non-zero mass on their home cluster
   (extraction forces them home, but a pass erasing that mass has
   destroyed the hard constraint and is misbehaving). The gate only
   inspects rows the pass actually wrote: untouched rows passed the
   previous gate and have not changed since (dirty-row tracking makes
   that an invariant, not an assumption). *)
let weights_violation ctx w =
  match Weights.normalize_validate_touched w with
  | Error e -> Some e
  | Ok () ->
    let bad = ref None in
    Array.iteri
      (fun home instrs ->
        if !bad = None then
          List.iter
            (fun i ->
              if
                !bad = None && Weights.is_touched w i
                && Weights.cluster_weight w i home <= 0.0
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "preplaced instr %d lost all weight on home cluster %d" i
                       home))
            instrs)
      ctx.Context.preplaced_on;
    !bad

let deadline_expired = function
  | None -> false
  | Some t -> Cs_obs.Clock.now () >= t

(* A pass cannot be preempted mid-flight, so budget enforcement is
   post-hoc: an overrun beyond the per-pass budget is treated exactly
   like a corrupting pass — rolled back and quarantined — so a
   pathologically slow heuristic degrades quality, never latency
   beyond one overrun. *)
let overrun ?pass_budget_s pass elapsed =
  match pass_budget_s with
  | Some budget when elapsed > budget ->
    Some
      (Cs_resil.Error.to_string
         (Cs_resil.Error.Pass_timeout
            (Printf.sprintf "%s ran %.1f ms (budget %.1f ms)" pass.Pass.name
               (1000.0 *. elapsed) (1000.0 *. budget))))
  | _ -> None

(* The fresh matrix of a sequence that does not open with INITTIME:
   every window spans every slot, so each entry is [1 / (nc * nt)] and
   no row is touched. *)
let uniform ctx =
  let n = Context.n_instrs ctx and nt = ctx.Context.nt in
  Weights.create_windowed ~nc:(Context.n_clusters ctx) ~nt ~lo:(Array.make n 0)
    ~hi:(Array.make n (nt - 1))

(* Shared engine: applies [passes] once over the matrix, returning it
   with the trace steps of this round (in order). Each pass runs inside
   an undo log: if it raises a classifiable exception or leaves the
   matrix violating invariants, the rows it changed are restored, the
   step records the reason, and the sequence continues — a misbehaving
   pass degrades quality, never correctness. When the Cs_obs sink is
   enabled, every event about a pass is derived from its step: a timed
   span (cat "pass"), then for a quarantine a cat "resil" instant and
   counter, then the convergence counter (cat "converge").

   [w = None] starts the first round on a fresh matrix. When the
   sequence opens with the stock INITTIME, that matrix is built already
   masked and gated by [Weights.create_windowed] instead of being
   filled uniformly and then masked row by row; the step is recorded
   like any other pass.

   [prefs] holds each row's preferred cluster in [w] (all 0 for a fresh
   matrix, whose cluster marginals tie) and is kept up to date in
   place, so at the end it is the round's final state. *)
let apply_round ?(round = 1) ?observe ?deadline ?pass_budget_s ctx w ~prefs passes =
  let n = Context.n_instrs ctx in
  let steps = ref [] in
  let timed_out = ref false in
  (* Only touched rows can change their argmax (a rolled-back row is
     restored to its pre-pass bits, and keeps the touched flag the pass
     set), so a pass's churn is counted over [w]'s touched rows alone,
     read from the flags in place, as [prefs] is brought up to date.
     [t0] and [elapsed_s] are the pass's one clock pair, the one its
     budget was checked against. *)
  let record w pass ~t0 ~elapsed_s quarantine =
    let changed = Weights.refresh_preferred w prefs in
    let step =
      { Trace.pass_name = pass.Pass.name; pass_kind = pass.Pass.kind; round;
        changed; total = n; elapsed_s; quarantine }
    in
    steps := step :: !steps;
    if Cs_obs.Obs.enabled () then begin
      Cs_obs.Obs.complete ~cat:"pass" ~args:[ ("round", Cs_obs.Obs.Int round) ]
        step.pass_name ~ts:t0 ~dur:elapsed_s;
      (match quarantine with
      | Some reason ->
        Cs_obs.Obs.instant ~cat:"resil" "quarantine"
          ~args:
            [ ("pass", Cs_obs.Obs.Str step.pass_name);
              ("round", Cs_obs.Obs.Int round);
              ("reason", Cs_obs.Obs.Str reason) ];
        Cs_obs.Obs.counter ~cat:"resil" "quarantine" [ ("quarantined", 1.0) ]
      | None -> ());
      Telemetry.emit step w
    end;
    match observe with None -> () | Some f -> f pass.Pass.name w
  in
  let w, passes =
    match (w, passes) with
    | Some w, _ -> (w, passes)
    | None, pass :: rest
      when pass.Pass.apply == Inittime.apply && not (deadline_expired deadline) ->
      let t0 = Cs_obs.Clock.now () in
      let built =
        let lo, hi = Inittime.windows ctx in
        Weights.create_windowed ~nc:(Context.n_clusters ctx) ~nt:ctx.Context.nt ~lo ~hi
      in
      let elapsed_s = Cs_obs.Clock.since t0 in
      let outcome = overrun ?pass_budget_s pass elapsed_s in
      (* An overrun leaves the uniform matrix, with no row touched and
         every preferred cluster still 0: no churn, as over [built]'s
         rows of a uniform matrix. *)
      let w = if outcome = None then built else uniform ctx in
      record w pass ~t0 ~elapsed_s outcome;
      (w, rest)
    | None, _ -> (uniform ctx, passes)
  in
  let rec loop = function
    | [] -> ()
    | _ :: _ when deadline_expired deadline ->
      (* Anytime early exit: W is a valid preference matrix after every
         pass, so stopping here still yields an extractable schedule.
         The skipped suffix is simply not recorded in the trace. *)
      timed_out := true;
      if Cs_obs.Obs.enabled () then
        Cs_obs.Obs.instant ~cat:"resil" "deadline"
          ~args:[ ("round", Cs_obs.Obs.Int round) ]
    | pass :: rest ->
      Weights.begin_pass w;
      let t0 = Cs_obs.Clock.now () in
      let outcome =
        match
          Cs_resil.Error.protect (fun () ->
              pass.Pass.apply ctx w;
              weights_violation ctx w)
        with
        | Error e -> Some (Cs_resil.Error.to_string e)
        | Ok violation -> violation
      in
      let elapsed_s = Cs_obs.Clock.since t0 in
      let outcome =
        match outcome with
        | Some _ -> outcome
        | None -> overrun ?pass_budget_s pass elapsed_s
      in
      (match outcome with Some _ -> Weights.rollback w | None -> Weights.commit w);
      record w pass ~t0 ~elapsed_s outcome;
      loop rest
  in
  loop passes;
  (w, List.rev !steps, !timed_out)

let finalize ?(timed_out = false) ctx w trace =
  let assignment = assignment_of_weights ctx w in
  let preferred_slot = Array.init (Weights.n w) (fun i -> Weights.preferred_time w i) in
  { assignment; preferred_slot; trace; weights = w; context = ctx; timed_out }

let run_iterative ?seed ?nt_cap ?observe ?deadline ?pass_budget_s ?(max_rounds = 5)
    ?(epsilon = 0.02) ~machine region passes =
  let ctx = Context.make ?seed ?nt_cap ~machine region in
  let n = Context.n_instrs ctx in
  let w = ref None in
  (* Accumulate rounds newest-first and reverse once at the end: the old
     [!trace @ round_steps] rescanned the whole prefix every round. *)
  let rev_trace = ref [] in
  let rounds = ref 0 in
  let timed_out = ref false in
  let continue_iterating = ref true in
  (* Every row's preferred cluster, kept current by [apply_round]. *)
  let prefs = Array.make n 0 in
  while !continue_iterating && !rounds < max_rounds do
    incr rounds;
    let before = Array.copy prefs in
    let round_w, steps, round_timed_out =
      Cs_obs.Obs.span ~cat:"round"
        ~args:[ ("round", Cs_obs.Obs.Int !rounds) ]
        "round"
        (fun () ->
          apply_round ~round:!rounds ?observe ?deadline ?pass_budget_s ctx !w ~prefs passes)
    in
    w := Some round_w;
    rev_trace := List.rev_append steps !rev_trace;
    let changed = ref 0 in
    Array.iteri (fun i c -> if c <> before.(i) then incr changed) prefs;
    let fraction = if n = 0 then 0.0 else float_of_int !changed /. float_of_int n in
    if Cs_obs.Obs.enabled () then
      Cs_obs.Obs.counter ~cat:"converge" "converge:round"
        [ ("round", float_of_int !rounds);
          ("churn", float_of_int !changed);
          ("churn_fraction", fraction) ];
    if round_timed_out then begin
      timed_out := true;
      continue_iterating := false
    end
    else if fraction < epsilon then continue_iterating := false
  done;
  let w =
    match !w with
    | Some w -> w
    | None -> uniform ctx
  in
  (finalize ~timed_out:!timed_out ctx w (List.rev !rev_trace), !rounds)

let run ?seed ?nt_cap ?observe ?deadline ?pass_budget_s ~machine region passes =
  let ctx = Context.make ?seed ?nt_cap ~machine region in
  let w, trace, timed_out =
    apply_round ?observe ?deadline ?pass_budget_s ctx None
      ~prefs:(Array.make (Context.n_instrs ctx) 0) passes
  in
  finalize ~timed_out ctx w trace
