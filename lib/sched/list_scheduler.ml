let effective_latency ~machine ~cluster ins =
  let base = Cs_machine.Machine.latency_of machine ins in
  match ins.Cs_ddg.Instr.preplace with
  | Some home
    when home <> cluster
         && Cs_ddg.Opcode.is_memory ins.Cs_ddg.Instr.op
         && machine.Cs_machine.Machine.remote_mem_penalty > 0 ->
    base + machine.Cs_machine.Machine.remote_mem_penalty
  | Some _ | None -> base

let check_placement ~machine ~assignment graph =
  Array.iter
    (fun ins ->
      let i = ins.Cs_ddg.Instr.id in
      let c = assignment.(i) in
      if c < 0 || c >= Cs_machine.Machine.n_clusters machine then
        Cs_resil.Error.invalid_input
          (Printf.sprintf "instr %d assigned to invalid cluster %d" i c);
      if not (Cs_machine.Machine.can_execute machine ~cluster:c ins.Cs_ddg.Instr.op) then
        Cs_resil.Error.infeasible
          (Printf.sprintf "instr %d (%s) cannot execute on cluster %d" i
             (Cs_ddg.Opcode.to_string ins.Cs_ddg.Instr.op)
             c);
      match ins.Cs_ddg.Instr.preplace with
      | Some home
        when home <> c && machine.Cs_machine.Machine.remote_mem_penalty = 0 ->
        Cs_resil.Error.infeasible
          (Printf.sprintf "preplaced instr %d must run on cluster %d, assigned %d" i home c)
      | Some _ | None -> ())
    (Cs_ddg.Graph.instrs graph)

(* Functional-unit classes as indices into the per-region candidate
   table. *)
let cls_index = function
  | Cs_ddg.Opcode.Int_op -> 0 | Mul_op -> 1 | Mem_op -> 2 | Float_op -> 3 | Fdiv_op -> 4
  | Move_op -> 5 | Comm_op -> 6

let schedule_region ~machine ~assignment ~priority ?analysis region =
  let graph = region.Cs_ddg.Region.graph in
  let n = Cs_ddg.Graph.n graph in
  if Array.length assignment <> n then
    Cs_resil.Error.invalid_input "List_scheduler.run: assignment size";
  if Array.length priority <> n then
    Cs_resil.Error.invalid_input "List_scheduler.run: priority size";
  check_placement ~machine ~assignment graph;
  let analysis =
    match analysis with
    | Some a -> a
    | None -> Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine) graph
  in
  let nc = Cs_machine.Machine.n_clusters machine in
  let fu_res =
    Array.init nc (fun c ->
        Array.init (Array.length machine.Cs_machine.Machine.fus.(c)) (fun _ ->
            Reservation.create ()))
  in
  (* Units that can issue each (cluster, class), found on first use;
     never empty once found, as [check_placement] has passed. *)
  let candidates = Array.make (nc * 7) [||] in
  let units_for c op =
    let k = (c * 7) + cls_index (Cs_ddg.Opcode.cls op) in
    if Array.length candidates.(k) = 0 then
      candidates.(k) <- Array.of_list (Cs_machine.Machine.fus_for machine ~cluster:c op);
    candidates.(k)
  in
  let comm = Comm.create machine in
  let finish = Array.make n (-1) in
  let entries =
    Array.make n { Schedule.cluster = -1; fu = -1; start = -1; finish = -1 }
  in
  let ready =
    Ready.create ~priority ~height:(Array.init n (Cs_ddg.Analysis.height analysis))
  in
  let pending = Array.make n 0 in
  for i = 0 to n - 1 do
    pending.(i) <- List.length (Cs_ddg.Graph.preds graph i);
    if pending.(i) = 0 then Ready.push ready i
  done;
  (* Counters are only tracked when the sink is enabled; the flag is
     read once so the drain loop stays branch-predictable. *)
  let obs = Cs_obs.Obs.enabled () in
  let ready_peak = ref (if obs then Ready.length ready else 0) in
  let fu_stalls = ref 0 in
  let operand_waits = ref 0 in
  let scheduled = ref 0 in
  let live_in_homes = region.Cs_ddg.Region.live_in_homes in
  (* A homed live-in read away from its home costs a real transfer. *)
  let live_in_avail i c =
    List.fold_left
      (fun acc r ->
        match Cs_ddg.Graph.defining_instr graph r with
        | Some _ -> acc
        | None ->
          (match Cs_ddg.Reg.Map.find_opt r live_in_homes with
          | Some home when home <> c ->
            Int.max acc
              (Comm.deliver comm ~producer:(Schedule.live_in_producer r) ~src:home ~dst:c
                 ~ready:0)
          | Some _ | None -> acc))
      0
      (Cs_ddg.Graph.instr graph i).Cs_ddg.Instr.srcs
  in
  let homes_none = Cs_ddg.Reg.Map.is_empty live_in_homes in
  (* Operand availability, synthesizing transfers as needed. *)
  let rec operands_ready c acc = function
    | [] -> acc
    | p :: rest ->
      let avail =
        if assignment.(p) = c then finish.(p)
        else begin
          if obs then incr operand_waits;
          Comm.deliver comm ~producer:p ~src:assignment.(p) ~dst:c ~ready:finish.(p)
        end
      in
      operands_ready c (Int.max acc avail) rest
  in
  let rec release = function
    | [] -> ()
    | s :: rest ->
      pending.(s) <- pending.(s) - 1;
      if pending.(s) = 0 then Ready.push ready s;
      release rest
  in
  let rec drain i =
    if i >= 0 then begin
      let ins = Cs_ddg.Graph.instr graph i in
      let c = assignment.(i) in
      let live = if homes_none then 0 else live_in_avail i c in
      let est = operands_ready c live (Cs_ddg.Graph.preds graph i) in
      (* Earliest issue slot on a compatible functional unit, the lowest
         index on a tie. *)
      let units = units_for c ins.Cs_ddg.Instr.op in
      let cycle = ref max_int and fu = ref (-1) in
      for k = 0 to Array.length units - 1 do
        let cy = Reservation.first_free_from fu_res.(c).(units.(k)) est in
        if cy < !cycle then begin
          cycle := cy;
          fu := units.(k)
        end
      done;
      let cycle = !cycle and fu = !fu in
      Reservation.book fu_res.(c).(fu) cycle;
      if obs && cycle > est then incr fu_stalls;
      let lat = effective_latency ~machine ~cluster:c ins in
      finish.(i) <- cycle + lat;
      entries.(i) <- { Schedule.cluster = c; fu; start = cycle; finish = finish.(i) };
      incr scheduled;
      release (Cs_ddg.Graph.succs graph i);
      if obs then ready_peak := Int.max !ready_peak (Ready.length ready);
      drain (Ready.pop ready)
    end
  in
  drain (Ready.pop ready);
  assert (!scheduled = n);
  let comms = Comm.bookings comm in
  let sched = Schedule.make ~machine ~graph ~live_in_homes ~entries ~comms () in
  if obs then
    Cs_obs.Obs.counter ~cat:"sched" "list_scheduler"
      [ ("instructions", float_of_int n);
        ("ready_peak", float_of_int !ready_peak);
        ("fu_stalls", float_of_int !fu_stalls);
        ("operand_waits", float_of_int !operand_waits);
        ("comms_inserted", float_of_int (List.length comms));
        ("makespan", float_of_int (Schedule.makespan sched)) ];
  sched

let run ~machine ~assignment ~priority ?analysis region =
  Cs_obs.Obs.span ~cat:"sched" "list_scheduler" (fun () ->
      schedule_region ~machine ~assignment ~priority ?analysis region)
