type point = {
  n_instrs : int;
  seconds : float;
}

(* Monotonic wall clock, not [Sys.time]: CPU time accumulates across
   all domains (so it overcounts under the Domain-parallel tuner) and
   undercounts any wait time in a sweep. *)
let time_scheduler ~scheduler ~machine region =
  let t0 = Cs_obs.Clock.now () in
  (* Unvalidated on purpose: we time the scheduler, not the checker. *)
  ignore (Pipeline.schedule_raw ~scheduler ~machine region : Cs_sched.Schedule.t);
  Cs_obs.Clock.since t0

let default_sizes = [ 50; 100; 200; 400; 800; 1200; 1600; 2000 ]

let sweep ?(sizes = default_sizes) ?(seed = 11) ~scheduler ~machine () =
  let congruence =
    Cs_workloads.Congruence.interleaved
      ~n_banks:(Cs_machine.Machine.n_clusters machine)
  in
  List.map
    (fun n ->
      let region = Cs_workloads.Shapes.layered ~n ~congruence ~seed:(seed + n) () in
      let seconds = time_scheduler ~scheduler ~machine region in
      { n_instrs = Cs_ddg.Region.n_instrs region; seconds })
    sizes
