type scheduler = Convergent | Rawcc | Uas | Pcc | Bug | Anneal

let all_schedulers = [ Convergent; Rawcc; Uas; Pcc; Bug; Anneal ]

let scheduler_name = function
  | Convergent -> "convergent"
  | Rawcc -> "rawcc"
  | Uas -> "uas"
  | Pcc -> "pcc"
  | Bug -> "bug"
  | Anneal -> "anneal"

let scheduler_of_name name =
  match String.lowercase_ascii name with
  | "convergent" -> Some Convergent
  | "rawcc" -> Some Rawcc
  | "uas" -> Some Uas
  | "pcc" -> Some Pcc
  | "bug" -> Some Bug
  | "anneal" | "sa" -> Some Anneal
  | _ -> None

let default_passes ~machine =
  if Cs_machine.Machine.is_mesh machine then Cs_core.Sequence.raw_default ()
  else Cs_core.Sequence.vliw_default ()

let validated sched =
  Cs_sched.Validator.check_exn sched;
  sched

(* Simulator-level counters: the cycles and transfers the machine model
   charges a finished schedule. One event per scheduling run. *)
let emit_sim_counters ~scheduler sched =
  if Cs_obs.Obs.enabled () then
    Cs_obs.Obs.counter ~cat:"sim" ("sim:" ^ scheduler_name scheduler)
      [ ("cycles", float_of_int (Cs_sched.Schedule.makespan sched));
        ("transfers", float_of_int (Cs_sched.Schedule.n_comms sched));
        ("utilization", Cs_sched.Schedule.utilization sched) ]

(* The convergent driver, then list scheduling on its assignment. The
   matrix is dead once the list scheduler has run, and no caller of
   this module sees it, so its storage goes back to the domain for the
   next region (see [Weights.release]). *)
let convergent_with_result ?seed ?passes ?deadline ?pass_budget_s ~machine region =
  let passes = match passes with Some p -> p | None -> default_passes ~machine in
  let result = Cs_core.Driver.run ?seed ?deadline ?pass_budget_s ~machine region passes in
  let analysis = result.Cs_core.Driver.context.Cs_core.Context.analysis in
  let priority =
    if Cs_machine.Machine.is_mesh machine then Cs_sched.Priority.alap analysis
    else Cs_sched.Priority.of_slots result.Cs_core.Driver.preferred_slot
  in
  let sched =
    Cs_sched.List_scheduler.run ~machine
      ~assignment:result.Cs_core.Driver.assignment ~priority ~analysis region
  in
  Cs_core.Weights.release result.Cs_core.Driver.weights;
  (sched, result)

let convergent_traced ?seed ?passes ~machine region =
  let sched, result = convergent_with_result ?seed ?passes ~machine region in
  (sched, result.Cs_core.Driver.trace)

let convergent ?seed ?passes ~machine region =
  let sched, trace = convergent_traced ?seed ?passes ~machine region in
  emit_sim_counters ~scheduler:Convergent sched;
  (validated sched, trace)

let schedule_raw ?seed ?passes ~scheduler ~machine region =
  match scheduler with
  | Convergent -> fst (convergent_traced ?seed ?passes ~machine region)
  | _ ->
    Cs_obs.Obs.span ~cat:"sim" ("schedule:" ^ scheduler_name scheduler) (fun () ->
        match scheduler with
        | Convergent -> assert false
        | Rawcc -> Cs_baselines.Rawcc.schedule ~machine region
        | Uas -> Cs_baselines.Uas.schedule ~machine region
        | Pcc -> Cs_baselines.Pcc.schedule ~machine region
        | Bug -> Cs_baselines.Bug.schedule ~machine region
        | Anneal -> Cs_baselines.Anneal.schedule ?seed ~machine region)

let schedule ?seed ~scheduler ~machine region =
  match scheduler with
  | Convergent -> fst (convergent ?seed ~machine region)
  | _ ->
    let sched = schedule_raw ?seed ~scheduler ~machine region in
    emit_sim_counters ~scheduler sched;
    validated sched

(* ---- Resilient fallback chain ------------------------------------- *)

(* Last-resort rung: the whole region on one surviving cluster, ALAP
   critical-path priority. With no inter-cluster dependences there are
   no transfers to route, so this validates on any machine that still
   has one cluster able to execute every opcode (and hosts or can
   remotely serve every preplacement). Clusters are tried in order. *)
let single_cluster ~machine region =
  let nc = Cs_machine.Machine.n_clusters machine in
  let n = Cs_ddg.Region.n_instrs region in
  let analysis =
    Cs_ddg.Analysis.make
      ~latency:(Cs_machine.Machine.latency_of machine)
      region.Cs_ddg.Region.graph
  in
  let priority = Cs_sched.Priority.alap analysis in
  let rec try_cluster c last_err =
    if c >= nc then
      Error
        (Option.value last_err
           ~default:
             (Cs_resil.Error.Infeasible "no cluster can host the whole region"))
    else if not (Cs_machine.Machine.is_cluster_alive machine c) then
      try_cluster (c + 1) last_err
    else
      match
        Cs_resil.Error.protect (fun () ->
            Cs_sched.List_scheduler.run ~machine ~assignment:(Array.make n c)
              ~priority ~analysis region)
      with
      | Ok sched -> Ok sched
      | Error e -> try_cluster (c + 1) (Some e)
  in
  try_cluster 0 None

let schedule_resilient ?seed ?passes ?deadline ?pass_budget_s ?(scheduler = Convergent)
    ~machine region =
  let deadline_expired () =
    match deadline with None -> false | Some t -> Cs_obs.Clock.now () >= t
  in
  let try_build label build =
    match Cs_resil.Error.protect build with
    | Error e -> Error e
    | Ok (sched, quarantined, timed_out) -> (
      match Cs_sched.Validator.check sched with
      | Ok () -> Ok (sched, quarantined, timed_out)
      | Error problems ->
        Error
          (Cs_resil.Error.Invalid_schedule
             (Printf.sprintf "%s: %s" label (String.concat "; " problems))))
  in
  let quarantines_of result =
    List.filter_map
      (fun (s : Cs_core.Trace.step) -> Option.map (fun r -> (s.pass_name, r)) s.quarantine)
      result.Cs_core.Driver.trace
  in
  let rungs =
    [ ( Cs_resil.Outcome.Requested,
        scheduler_name scheduler,
        fun () ->
          match scheduler with
          | Convergent ->
            let sched, result =
              convergent_with_result ?seed ?passes ?deadline ?pass_budget_s ~machine
                region
            in
            (sched, quarantines_of result, result.Cs_core.Driver.timed_out)
          | _ -> (schedule_raw ?seed ~scheduler ~machine region, [], false) ) ]
    @ (* Rung 2 adds nothing when rung 1 already was the default
         convergent sequence. *)
    (if scheduler = Convergent && passes = None then []
     else
       [ ( Cs_resil.Outcome.Default_sequence,
           "convergent-default",
           fun () ->
             let sched, result =
               convergent_with_result ?seed ?deadline ?pass_budget_s ~machine region
             in
             (sched, quarantines_of result, result.Cs_core.Driver.timed_out) ) ])
    @ [ ( Cs_resil.Outcome.Single_cluster,
          "single-cluster",
          fun () ->
            match single_cluster ~machine region with
            | Ok sched -> (sched, [], false)
            | Error e -> Cs_resil.Error.error e ) ]
  in
  let rec climb attempts = function
    | [] -> (
      match attempts with
      | (_, _, e) :: _ -> Error e
      | [] -> Error (Cs_resil.Error.Infeasible "no fallback rung available"))
    | _ :: _ when attempts <> [] && deadline_expired () ->
      (* The deadline expired while earlier rungs burned the budget:
         refuse with a typed error rather than climbing on. A rung
         already in flight is never abandoned — the convergent rungs cut
         themselves short via the driver's anytime exit — so the caller
         gets either a validated schedule or this refusal, never a
         hang. The first rung always gets a chance to run. *)
      Error
        (Cs_resil.Error.Deadline_exceeded
           (Printf.sprintf "deadline expired after %d failed rung%s"
              (List.length attempts)
              (if List.length attempts = 1 then "" else "s")))
    | (rung, label, build) :: rest -> (
      match try_build label build with
      | Ok (sched, quarantined, timed_out) ->
        let outcome =
          { Cs_resil.Outcome.rung; attempts = List.rev attempts; quarantined;
            timed_out }
        in
        if Cs_obs.Obs.enabled () && rung <> Cs_resil.Outcome.Requested then
          Cs_obs.Obs.instant ~cat:"resil" "fallback"
            ~args:
              [ ("rung", Cs_obs.Obs.Str (Cs_resil.Outcome.rung_to_string rung));
                ("attempts", Cs_obs.Obs.Int (List.length outcome.attempts)) ];
        emit_sim_counters ~scheduler sched;
        Ok (sched, outcome)
      | Error e ->
        if Cs_obs.Obs.enabled () then
          Cs_obs.Obs.instant ~cat:"resil" "rung-failed"
            ~args:
              [ ("rung", Cs_obs.Obs.Str (Cs_resil.Outcome.rung_to_string rung));
                ("label", Cs_obs.Obs.Str label);
                ("error", Cs_obs.Obs.Str (Cs_resil.Error.to_string e)) ];
        climb ((rung, label, e) :: attempts) rest)
  in
  Cs_obs.Obs.span ~cat:"resil" "schedule_resilient" (fun () -> climb [] rungs)
