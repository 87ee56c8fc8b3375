let schedule ~machine region =
  let graph = region.Cs_ddg.Region.graph in
  let n = Cs_ddg.Graph.n graph in
  let analysis = Estimator.analysis_for ~machine region in
  let nc = Cs_machine.Machine.n_clusters machine in
  let fu_res =
    Array.init nc (fun c ->
        Array.init (Array.length machine.Cs_machine.Machine.fus.(c)) (fun _ ->
            Cs_sched.Reservation.create ()))
  in
  let comm = Cs_sched.Comm.create machine in
  let finish = Array.make n (-1) in
  let assignment = Array.make n (-1) in
  let entries =
    Array.make n { Cs_sched.Schedule.cluster = -1; fu = -1; start = -1; finish = -1 }
  in
  let load = Array.make nc 0 in
  let priority = Cs_sched.Priority.alap analysis in
  let ready =
    Cs_sched.Ready.create ~priority ~height:(Array.init n (Cs_ddg.Analysis.height analysis))
  in
  let pending = Array.make n 0 in
  for i = 0 to n - 1 do
    pending.(i) <- List.length (Cs_ddg.Graph.preds graph i);
    if pending.(i) = 0 then Cs_sched.Ready.push ready i
  done;
  (* Estimated completion of [i] on [c]: operand arrivals assuming an
     uncontended network, then the first free compatible unit. *)
  let estimate i c =
    let ins = Cs_ddg.Graph.instr graph i in
    match Cs_machine.Machine.fus_for machine ~cluster:c ins.Cs_ddg.Instr.op with
    | [] -> None
    | candidates ->
      let est_operands =
        List.fold_left
          (fun acc p ->
            let arrive =
              finish.(p) + Cs_machine.Machine.comm_latency machine ~src:assignment.(p) ~dst:c
            in
            max acc arrive)
          0 (Cs_ddg.Graph.preds graph i)
      in
      let start =
        List.fold_left
          (fun acc u -> min acc (Cs_sched.Reservation.first_free_from fu_res.(c).(u) est_operands))
          max_int candidates
      in
      Some (start + Cs_sched.List_scheduler.effective_latency ~machine ~cluster:c ins)
  in
  let cluster_order i =
    let ins = Cs_ddg.Graph.instr graph i in
    match ins.Cs_ddg.Instr.preplace with
    | Some home when machine.Cs_machine.Machine.remote_mem_penalty = 0 -> [ home ]
    | Some home ->
      (* Home cluster first, the rest by estimated completion. *)
      let rest = List.filter (fun c -> c <> home) (List.init nc (fun c -> c)) in
      home :: List.sort (fun a b -> compare (estimate i a, load.(a), a) (estimate i b, load.(b), b)) rest
    | None ->
      List.sort
        (fun a b -> compare (estimate i a, load.(a), a) (estimate i b, load.(b), b))
        (List.init nc (fun c -> c))
  in
  let live_in_homes = region.Cs_ddg.Region.live_in_homes in
  let live_in_avail i c =
    List.fold_left
      (fun acc r ->
        match Cs_ddg.Graph.defining_instr graph r with
        | Some _ -> acc
        | None ->
          (match Cs_ddg.Reg.Map.find_opt r live_in_homes with
          | Some home when home <> c ->
            max acc
              (Cs_sched.Comm.deliver comm
                 ~producer:(Cs_sched.Schedule.live_in_producer r) ~src:home ~dst:c ~ready:0)
          | Some _ | None -> acc))
      0
      (Cs_ddg.Graph.instr graph i).Cs_ddg.Instr.srcs
  in
  let commit i c =
    let ins = Cs_ddg.Graph.instr graph i in
    assignment.(i) <- c;
    let est =
      List.fold_left
        (fun acc p ->
          let avail =
            if assignment.(p) = c then finish.(p)
            else
              Cs_sched.Comm.deliver comm ~producer:p ~src:assignment.(p) ~dst:c
                ~ready:finish.(p)
          in
          max acc avail)
        (live_in_avail i c)
        (Cs_ddg.Graph.preds graph i)
    in
    let candidates = Cs_machine.Machine.fus_for machine ~cluster:c ins.Cs_ddg.Instr.op in
    let cycle, fu =
      List.fold_left
        (fun (bc, bu) u ->
          let cy = Cs_sched.Reservation.first_free_from fu_res.(c).(u) est in
          if cy < bc then (cy, u) else (bc, bu))
        (max_int, -1) candidates
    in
    Cs_sched.Reservation.book fu_res.(c).(fu) cycle;
    let lat = Cs_sched.List_scheduler.effective_latency ~machine ~cluster:c ins in
    finish.(i) <- cycle + lat;
    load.(c) <- load.(c) + lat;
    entries.(i) <- { Cs_sched.Schedule.cluster = c; fu; start = cycle; finish = finish.(i) }
  in
  let rec drain () =
    match Cs_sched.Ready.pop ready with
    | -1 -> ()
    | i ->
      let ins = Cs_ddg.Graph.instr graph i in
      let viable =
        List.filter
          (fun c -> Cs_machine.Machine.can_execute machine ~cluster:c ins.Cs_ddg.Instr.op)
          (cluster_order i)
      in
      (match viable with
      | [] ->
        Cs_resil.Error.infeasible
          (Printf.sprintf "UAS: no cluster can execute instr %d" i)
      | c :: _ -> commit i c);
      List.iter
        (fun s ->
          pending.(s) <- pending.(s) - 1;
          if pending.(s) = 0 then Cs_sched.Ready.push ready s)
        (Cs_ddg.Graph.succs graph i);
      drain ()
  in
  drain ();
  Cs_sched.Schedule.make ~machine ~graph ~live_in_homes ~entries
    ~comms:(Cs_sched.Comm.bookings comm) ()

let assign ~machine region = Cs_sched.Schedule.assignment (schedule ~machine region)
