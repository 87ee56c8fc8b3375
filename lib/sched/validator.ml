module Itbl = Comm.Itbl

(* Everything below is rebuilt from the schedule and the machine alone:
   the validator shares no state with the list scheduler, so a bug
   there cannot hide here. *)
let check sched =
  let machine = sched.Schedule.machine in
  let graph = sched.Schedule.graph in
  let n = Cs_ddg.Graph.n graph in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let nc = Cs_machine.Machine.n_clusters machine in
  (* Total even on degraded meshes: a corrupt schedule may pair
     unreachable clusters, which must become a reported problem, not a
     raised [Unreachable]. Found once per cluster pair, reported at
     every ask. *)
  let latencies = Array.make (nc * nc) None in
  let latency_between ~what ~src ~dst =
    let pair = if src >= 0 && src < nc && dst >= 0 && dst < nc then (src * nc) + dst else -1 in
    let found =
      match if pair >= 0 then latencies.(pair) else None with
      | Some r -> r
      | None ->
        let r =
          Cs_resil.Error.protect (fun () -> Cs_machine.Machine.comm_latency machine ~src ~dst)
        in
        if pair >= 0 then latencies.(pair) <- Some r;
        r
    in
    match found with
    | Ok lat -> Some lat
    | Error e ->
      fail "%s %d->%d has no route: %s" what src dst (Cs_resil.Error.to_string e);
      None
  in
  (* The first listed transfer of each (producer, destination), as
     [Schedule.comms_for] finds it, keyed by [producer * nc + dst]. A
     destination outside the machine is looked up the slow way. *)
  let firsts = Itbl.create 64 in
  List.iter
    (fun (cm : Schedule.comm) ->
      let key = (cm.producer * nc) + cm.dst in
      if cm.dst >= 0 && cm.dst < nc && not (Itbl.mem firsts key) then Itbl.add firsts key cm)
    sched.Schedule.comms;
  let transfer ~producer ~dst =
    if dst >= 0 && dst < nc then Itbl.find_opt firsts ((producer * nc) + dst)
    else Schedule.comms_for sched ~producer ~dst
  in
  (* Per-entry legality. *)
  Array.iteri
    (fun i (e : Schedule.entry) ->
      let ins = Cs_ddg.Graph.instr graph i in
      if e.cluster < 0 || e.cluster >= nc then fail "i%d on invalid cluster %d" i e.cluster
      else begin
        let fus = machine.Cs_machine.Machine.fus.(e.cluster) in
        if e.fu < 0 || e.fu >= Array.length fus then fail "i%d on invalid unit %d" i e.fu
        else if not (Cs_machine.Fu.can_execute fus.(e.fu) (Cs_ddg.Opcode.cls ins.Cs_ddg.Instr.op))
        then
          fail "i%d (%s) on incompatible unit %s" i
            (Cs_ddg.Opcode.to_string ins.Cs_ddg.Instr.op)
            (Cs_machine.Fu.to_string fus.(e.fu));
        if e.start < 0 then fail "i%d starts at negative cycle %d" i e.start;
        let lat = List_scheduler.effective_latency ~machine ~cluster:e.cluster ins in
        if e.finish <> e.start + lat then
          fail "i%d finish %d inconsistent with start %d + latency %d" i e.finish e.start lat;
        match ins.Cs_ddg.Instr.preplace with
        | Some home when home <> e.cluster ->
          let remote_ok =
            Cs_ddg.Opcode.is_memory ins.Cs_ddg.Instr.op
            && machine.Cs_machine.Machine.remote_mem_penalty > 0
          in
          if not remote_ok then fail "preplaced i%d ran on cluster %d, home %d" i e.cluster home
        | Some _ | None -> ()
      end)
    sched.Schedule.entries;
  (* Issue-slot conflicts. A slot in range is keyed by one int; any
     other (an entry reported invalid above, or one at a cycle past the
     int packing) by its triple. *)
  let widest =
    Array.fold_left (fun acc fus -> max acc (Array.length fus)) 0 machine.Cs_machine.Machine.fus
  in
  let units = nc * widest in
  let slots = Itbl.create (max 16 n) and odd_slots = Hashtbl.create 1 in
  Array.iteri
    (fun i (e : Schedule.entry) ->
      let key =
        if e.cluster >= 0 && e.cluster < nc && e.fu >= 0 && e.fu < widest && e.start >= 0
           && e.start < max_int / units
        then (e.start * units) + (e.cluster * widest) + e.fu
        else -1
      in
      let last =
        if key >= 0 then Itbl.find_opt slots key
        else Hashtbl.find_opt odd_slots (e.cluster, e.fu, e.start)
      in
      (match last with
      | Some other ->
        fail "i%d and i%d both issue on cluster %d unit %d at cycle %d" other i e.cluster e.fu
          e.start
      | None -> ());
      if key >= 0 then Itbl.replace slots key i
      else Hashtbl.replace odd_slots (e.cluster, e.fu, e.start) i)
    sched.Schedule.entries;
  (* Dependences. *)
  let entries = sched.Schedule.entries in
  let rec consumers p (ep : Schedule.entry) = function
    | [] -> ()
    | s :: rest ->
      let es = entries.(s) in
      if ep.cluster = es.cluster then begin
        if es.start < ep.finish then
          fail "i%d starts at %d before producer i%d finishes at %d" s es.start p ep.finish
      end
      else begin
        match transfer ~producer:p ~dst:es.cluster with
        | None -> fail "no transfer feeds i%d (cluster %d) with value of i%d" s es.cluster p
        | Some cm ->
          if cm.src <> ep.cluster then
            fail "transfer of i%d departs cluster %d, producer on %d" p cm.src ep.cluster;
          if cm.depart < ep.finish then
            fail "transfer of i%d departs at %d before producer finishes at %d" p cm.depart
              ep.finish;
          (match latency_between ~what:"transfer" ~src:cm.src ~dst:cm.dst with
          | Some lat when cm.arrive <> cm.depart + lat ->
            fail "transfer of i%d has latency %d, topology says %d" p (cm.arrive - cm.depart) lat
          | Some _ | None -> ());
          if es.start < cm.arrive then
            fail "i%d starts at %d before value of i%d arrives at %d" s es.start p cm.arrive
      end;
      consumers p ep rest
  in
  for p = 0 to n - 1 do
    consumers p entries.(p) (Cs_ddg.Graph.succs graph p)
  done;
  (* Homed live-ins consumed off their home cluster need a recorded,
     timely delivery. *)
  if not (Cs_ddg.Reg.Map.is_empty sched.Schedule.live_in_homes) then
    Array.iter
      (fun ins ->
        let i = ins.Cs_ddg.Instr.id in
        let ei = entries.(i) in
        List.iter
          (fun r ->
            match Cs_ddg.Graph.defining_instr graph r with
            | Some _ -> ()
            | None ->
              (match Cs_ddg.Reg.Map.find_opt r sched.Schedule.live_in_homes with
              | Some home when home <> ei.cluster ->
                (match transfer ~producer:(Schedule.live_in_producer r) ~dst:ei.cluster with
                | None ->
                  fail "no transfer delivers live-in %s to i%d on cluster %d"
                    (Cs_ddg.Reg.to_string r) i ei.cluster
                | Some cm ->
                  if cm.src <> home then
                    fail "live-in %s departs cluster %d, home is %d" (Cs_ddg.Reg.to_string r)
                      cm.src home;
                  if cm.depart < 0 then
                    fail "live-in %s departs before cycle 0" (Cs_ddg.Reg.to_string r);
                  (match latency_between ~what:"live-in transfer" ~src:cm.src ~dst:cm.dst with
                  | Some lat when cm.arrive <> cm.depart + lat ->
                    fail "live-in %s transfer latency %d, topology says %d"
                      (Cs_ddg.Reg.to_string r) (cm.arrive - cm.depart) lat
                  | Some _ | None -> ());
                  if ei.start < cm.arrive then
                    fail "i%d reads live-in %s at %d before it arrives at %d" i
                      (Cs_ddg.Reg.to_string r) ei.start cm.arrive)
              | Some _ | None -> ()))
          ins.Cs_ddg.Instr.srcs)
      (Cs_ddg.Graph.instrs graph);
  (* Communication resource conflicts. *)
  List.iter (fun p -> problems := p :: !problems)
    (Comm.link_conflicts machine sched.Schedule.comms);
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)

let check_exn sched =
  match check sched with
  | Ok () -> ()
  | Error ps -> failwith (String.concat "\n" ps)
