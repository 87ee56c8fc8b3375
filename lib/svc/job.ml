type t = {
  request : Proto.request;
  arrival : float;
  deadline : float option;
}

let admit ?default_deadline_ms (request : Proto.request) =
  let arrival = Cs_obs.Clock.now () in
  let budget_ms =
    match request.deadline_ms with Some d -> Some d | None -> default_deadline_ms
  in
  let deadline = Option.map (fun ms -> arrival +. (ms /. 1000.0)) budget_ms in
  { request; arrival; deadline }

let ( let* ) = Result.bind

(* CHAOS is a fault-injection drill, not a scheduling pass: from a
   request, mode 5 would hold a worker for up to a minute, past any
   deadline (a pass cannot be preempted), and the other modes fail
   passes on purpose. Drills add it on the server side
   ([extra_passes]); repros, fuzzing and [Sequence.of_spec] keep it. *)
let parse_passes spec =
  let* passes =
    Cs_core.Sequence.of_names (String.split_on_char ',' spec)
    |> Result.map_error (fun e -> Cs_resil.Error.Invalid_input e)
  in
  if List.exists (fun p -> p.Cs_core.Pass.name = Cs_core.Chaos.decl.Cs_core.Pass.name) passes
  then
    Error
      (Cs_resil.Error.Invalid_input
         "pass CHAOS injects faults and is not accepted in a request")
  else Ok passes

(* Resolve the request's named pieces against the registries. All
   failures come back as typed [Invalid_input] so the service replies
   with a refusal instead of tearing down the worker. *)
let resolve (r : Proto.request) =
  let* machine =
    Proto.machine_of_name r.machine
    |> Result.map_error (fun e -> Cs_resil.Error.Invalid_input e)
  in
  let* entry =
    match Cs_workloads.Suite.find r.bench with
    | Some e -> Ok e
    | None -> Error (Cs_resil.Error.Invalid_input (Printf.sprintf "unknown benchmark %S" r.bench))
  in
  let* scheduler =
    match Cs_sim.Pipeline.scheduler_of_name r.scheduler with
    | Some s -> Ok s
    | None ->
      Error (Cs_resil.Error.Invalid_input (Printf.sprintf "unknown scheduler %S" r.scheduler))
  in
  let* passes =
    match r.passes with
    | None -> Ok None
    | Some spec -> Result.map Option.some (parse_passes spec)
  in
  Ok (machine, entry, scheduler, passes)

let run ?retry_policy ?extra_passes ?pass_budget_s job =
  let r = job.request in
  let t0 = Cs_obs.Clock.now () in
  let elapsed_ms () = (Cs_obs.Clock.now () -. t0) *. 1000.0 in
  let refuse err = Proto.refused ~elapsed_ms:(elapsed_ms ()) ~id:r.id err in
  let expired () =
    match job.deadline with Some d -> Cs_obs.Clock.now () >= d | None -> false
  in
  (* A job whose deadline already expired while queued gets the typed
     refusal up front: running it cannot possibly satisfy the caller,
     and the worker's time belongs to jobs that can still make it. *)
  if expired () then
    refuse
      (Cs_resil.Error.Deadline_exceeded
         (Printf.sprintf "deadline expired %.1f ms before the job was dequeued"
            ((Cs_obs.Clock.now () -. Option.get job.deadline) *. 1000.0)))
  else
    match resolve r with
    | Error err -> refuse err
    | Ok (machine, entry, scheduler, passes) ->
      let region =
        entry.Cs_workloads.Suite.generate ~scale:r.scale
          ~clusters:(Cs_machine.Machine.n_clusters machine) ()
      in
      let passes =
        (* Injected chaos (e.g. a slow pass for SLO drills) applies only
           to convergent sequences — the other schedulers have no pass
           pipeline to perturb. *)
        match (extra_passes, scheduler) with
        | Some extra, Cs_sim.Pipeline.Convergent ->
          let base =
            match passes with
            | Some ps -> ps
            | None -> Cs_sim.Pipeline.default_passes ~machine
          in
          Some (base @ extra)
        | _ -> passes
      in
      let attempt ~attempt:_ =
        Cs_sim.Pipeline.schedule_resilient ?seed:r.seed ?passes
          ?deadline:job.deadline ?pass_budget_s ~scheduler ~machine region
      in
      let result =
        match retry_policy with
        | None -> attempt ~attempt:1
        | Some policy ->
          (* Retrying past the deadline would answer late; stop as soon
             as the budget is gone even if attempts remain. *)
          Retry.run ~policy
            ~retryable:(fun e -> Retry.transient e && not (expired ()))
            attempt
      in
      (match result with
      | Error err -> refuse err
      | Ok (sched, outcome) ->
        Proto.reply ~id:r.id ~elapsed_ms:(elapsed_ms ())
          (Proto.Scheduled
             { cycles = Cs_sched.Schedule.makespan sched;
               transfers = Cs_sched.Schedule.n_comms sched;
               rung = Cs_resil.Outcome.rung_to_string outcome.Cs_resil.Outcome.rung;
               timed_out = outcome.Cs_resil.Outcome.timed_out;
               quarantined = List.length outcome.Cs_resil.Outcome.quarantined }))
