type violation = { check : string; detail : string }

let violation check detail = { check; detail }

let build scenario =
  let { Scenario.machine; faults; region; spec; seed; _ } = scenario in
  if faults = [] then begin
    try
      Ok
        (Some
           (match spec with
           | Scenario.Baseline scheduler ->
             Cs_sim.Pipeline.schedule_raw ~seed ~scheduler ~machine region
           | Scenario.Passes passes ->
             Cs_sim.Pipeline.schedule_raw ~seed ~passes
               ~scheduler:Cs_sim.Pipeline.Convergent ~machine region))
    with
    | Cs_resil.Error.Error e ->
      Error (violation "schedule" (Cs_resil.Error.to_string e))
    | Failure msg -> Error (violation "schedule" ("failure: " ^ msg))
    | Invalid_argument msg -> Error (violation "schedule" ("invalid argument: " ^ msg))
  end
  else begin
    (* Degraded machine: the contract is schedule_resilient's — either a
       validated schedule or a classified refusal. A refusal is a
       legitimate outcome ([Ok None]); an escaped exception is not. *)
    let machine = Scenario.scheduling_machine scenario in
    try
      match spec with
      | Scenario.Baseline scheduler ->
        (match Cs_sim.Pipeline.schedule_resilient ~seed ~scheduler ~machine region with
        | Ok (sched, _) -> Ok (Some sched)
        | Error _ -> Ok None)
      | Scenario.Passes passes ->
        (match Cs_sim.Pipeline.schedule_resilient ~seed ~passes ~machine region with
        | Ok (sched, _) -> Ok (Some sched)
        | Error _ -> Ok None)
    with
    | Failure msg -> Error (violation "schedule" ("escaped failure: " ^ msg))
    | Invalid_argument msg ->
      Error (violation "schedule" ("escaped invalid argument: " ^ msg))
  end

let check_validator sched =
  match Cs_sched.Validator.check sched with
  | Ok () -> Ok ()
  | Error problems ->
    Error (violation "validator" (String.concat "; " problems))

let check_interp region sched =
  match Cs_sim.Interp.equivalent region sched with
  | Ok () -> Ok ()
  | Error msg -> Error (violation "interp" msg)

let check_bounds machine region sched =
  let n = Cs_ddg.Region.n_instrs region in
  let makespan = Cs_sched.Schedule.makespan sched in
  let analysis =
    Cs_ddg.Analysis.make
      ~latency:(Cs_machine.Machine.latency_of machine)
      region.Cs_ddg.Region.graph
  in
  let cpl = Cs_ddg.Analysis.cpl analysis in
  if n > 0 && makespan < cpl then
    Error
      (violation "cpl-bound"
         (Printf.sprintf "makespan %d below critical-path bound %d" makespan cpl))
  else begin
    let slots =
      makespan * Cs_machine.Machine.n_clusters machine
      * Cs_machine.Machine.issue_width machine
    in
    if n > 0 && slots < n then
      Error
        (violation "resource-bound"
           (Printf.sprintf "%d instructions in %d issue slots (makespan %d)" n slots
              makespan))
    else Ok ()
  end

(* Cluster-permutation metamorphic invariant: on a symmetric machine
   (identical clusters behind a crossbar) with nothing pinning a value
   to a particular cluster, relabeling the clusters of a legal schedule
   must yield another legal, semantically equivalent schedule of the
   same makespan. Catches hidden cluster-identity assumptions in the
   validator and the semantic oracle. Fault plans break the symmetry,
   so degraded scenarios are never permutable. *)
let permutable scenario =
  let { Scenario.machine; faults; region; _ } = scenario in
  faults = []
  && (not (Cs_machine.Machine.is_mesh machine))
  && Cs_machine.Machine.n_clusters machine > 1
  && Cs_ddg.Graph.preplaced region.Cs_ddg.Region.graph = []

let check_permutation scenario sched =
  if not (permutable scenario) then Ok ()
  else begin
    let { Scenario.machine; region; _ } = scenario in
    let nc = Cs_machine.Machine.n_clusters machine in
    let rotated = Cs_sched.Schedule.map_clusters (fun c -> (c + 1) mod nc) sched in
    if Cs_sched.Schedule.makespan rotated <> Cs_sched.Schedule.makespan sched then
      Error (violation "permute" "cluster rotation changed the makespan")
    else
      match Cs_sched.Validator.check rotated with
      | Error problems ->
        Error
          (violation "permute"
             ("rotated schedule rejected: " ^ String.concat "; " problems))
      | Ok () ->
        (match Cs_sim.Interp.equivalent region rotated with
        | Ok () -> Ok ()
        | Error msg -> Error (violation "permute" ("rotated schedule inequivalent: " ^ msg)))
  end

let check_schedule scenario sched =
  let { Scenario.region; _ } = scenario in
  let machine = Scenario.scheduling_machine scenario in
  let ( let* ) = Result.bind in
  let* () = check_validator sched in
  let* () = check_interp region sched in
  let* () = check_bounds machine region sched in
  check_permutation scenario sched

(* Rollback oracle. A CHAOS pass in mode 0 or 1 raises mid-write, in
   mode 4 raises before writing, and in mode 3 erases preplaced rows'
   home mass, which the gate rejects (or writes nothing when no row is
   preplaced). Either way the driver must restore the matrix bit for
   bit, so the sequence without its CHAOS passes must schedule every
   instruction on the same cluster in the same cycle. Mode 2 squashes
   rows to zero, which the gate resets to uniform and accepts, and so
   does mode 3 on a one-cluster machine, where the home lane is the
   whole row; mode 5 only stalls. A sequence using any of these is not
   checked. *)
let chaos_mode p =
  if p.Cs_core.Pass.name = "CHAOS" then Cs_core.Pass.param p "mode" else None

let same_schedule a b =
  Cs_sched.Schedule.makespan a = Cs_sched.Schedule.makespan b
  && Array.for_all2
       (fun (x : Cs_sched.Schedule.entry) (y : Cs_sched.Schedule.entry) ->
         x.cluster = y.cluster && x.start = y.start)
       a.Cs_sched.Schedule.entries b.Cs_sched.Schedule.entries

let check_chaos scenario built =
  match scenario.Scenario.spec with
  | Scenario.Passes passes
    when List.exists (fun p -> chaos_mode p <> None) passes
         && List.for_all
              (fun p ->
                match chaos_mode p with
                | None -> true
                | Some m ->
                  List.mem m [ 0.0; 1.0; 4.0 ]
                  || (m = 3.0 && Cs_machine.Machine.n_clusters scenario.Scenario.machine > 1))
              passes -> (
    let clean = List.filter (fun p -> chaos_mode p = None) passes in
    let differ detail = Error (violation "chaos" detail) in
    match (built, build { scenario with Scenario.spec = Scenario.Passes clean }) with
    | _, Error v -> differ ("without CHAOS: " ^ v.detail)
    | None, Ok None -> Ok ()
    | Some a, Ok (Some b) when same_schedule a b -> Ok ()
    | Some _, Ok (Some _) -> differ "schedule differs from the sequence without CHAOS"
    | None, Ok (Some _) -> differ "refused, but schedulable without CHAOS"
    | Some _, Ok None -> differ "schedulable, but refused without CHAOS")
  | _ -> Ok ()

let run ?transform scenario =
  match build scenario with
  | Error v -> Error v
  | Ok built ->
    let ( let* ) = Result.bind in
    let* () =
      match built with
      | None -> Ok ()
      | Some sched ->
        check_schedule scenario (match transform with Some f -> f sched | None -> sched)
    in
    check_chaos scenario built
