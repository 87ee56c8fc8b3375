(* Tests for the schedule validator: a known-good schedule passes; each
   kind of corruption is caught. *)

let check_bool = Alcotest.(check bool)

let vliw2 = Cs_machine.Vliw.create ~n_clusters:2 ()

let base_region () =
  let b = Cs_ddg.Builder.create ~name:"v" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let x = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd x in
  Cs_ddg.Builder.finish b

let good_schedule ?(assignment = [| 0; 0; 1 |]) () =
  let region = base_region () in
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of vliw2)
      region.Cs_ddg.Region.graph
  in
  Cs_sched.List_scheduler.run ~machine:vliw2 ~assignment
    ~priority:(Cs_sched.Priority.alap a) ~analysis:a region

let rejects what tamper =
  let sched = good_schedule () in
  let entries = Array.copy sched.Cs_sched.Schedule.entries in
  let comms = ref sched.Cs_sched.Schedule.comms in
  tamper entries comms;
  let bad = { sched with Cs_sched.Schedule.entries; comms = !comms } in
  check_bool what true (match Cs_sched.Validator.check bad with Error _ -> true | Ok () -> false)

let test_good_passes () =
  check_bool "valid" true (Cs_sched.Validator.check (good_schedule ()) = Ok ())

let test_good_single_cluster_passes () =
  check_bool "valid" true
    (Cs_sched.Validator.check (good_schedule ~assignment:[| 0; 0; 0 |] ()) = Ok ())

let test_rejects_bad_cluster () =
  rejects "cluster out of range" (fun entries _ ->
      entries.(0) <- { entries.(0) with Cs_sched.Schedule.cluster = 7 })

let test_rejects_incompatible_unit () =
  rejects "fadd on int alu" (fun entries _ ->
      (* Unit 0 is Int_alu on the VLIW; instruction 2 is Fadd. *)
      entries.(2) <- { entries.(2) with Cs_sched.Schedule.fu = 0 })

let test_rejects_negative_start () =
  rejects "negative start" (fun entries _ ->
      entries.(0) <- { entries.(0) with Cs_sched.Schedule.start = -1; finish = 0 })

let test_rejects_wrong_latency () =
  rejects "finish != start + latency" (fun entries _ ->
      entries.(1) <- { entries.(1) with Cs_sched.Schedule.finish = entries.(1).Cs_sched.Schedule.finish + 3 })

let test_rejects_issue_conflict () =
  rejects "same slot twice" (fun entries _ ->
      entries.(1) <-
        { entries.(0) with Cs_sched.Schedule.finish = entries.(0).Cs_sched.Schedule.finish })

let test_rejects_dependence_violation () =
  rejects "consumer before producer" (fun entries _ ->
      entries.(1) <- { entries.(1) with Cs_sched.Schedule.start = 0; finish = 1 })

let test_rejects_missing_transfer () =
  rejects "no transfer" (fun _ comms -> comms := [])

let test_rejects_transfer_wrong_latency () =
  rejects "transfer latency" (fun _ comms ->
      comms := List.map (fun c -> { c with Cs_sched.Schedule.arrive = c.Cs_sched.Schedule.arrive + 1 }) !comms)

let test_rejects_transfer_before_producer () =
  rejects "early departure" (fun _ comms ->
      comms :=
        List.map
          (fun c -> { c with Cs_sched.Schedule.depart = 0; arrive = Cs_machine.Machine.comm_latency vliw2 ~src:c.Cs_sched.Schedule.src ~dst:c.Cs_sched.Schedule.dst }) !comms)

let test_rejects_preplaced_nonmem_off_home () =
  (* A preplaced *load* may run remotely on the VLIW, but check the mesh
     rule: any preplaced instruction off home is rejected. *)
  let machine = Cs_machine.Raw.create ~rows:1 ~cols:2 () in
  let b = Cs_ddg.Builder.create ~name:"pre" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _l = Cs_ddg.Builder.load b ~preplace:1 addr in
  let region = Cs_ddg.Builder.finish b in
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine)
      region.Cs_ddg.Region.graph
  in
  let sched =
    Cs_sched.List_scheduler.run ~machine ~assignment:[| 1; 1 |]
      ~priority:(Cs_sched.Priority.alap a) ~analysis:a region
  in
  let entries = Array.copy sched.Cs_sched.Schedule.entries in
  entries.(1) <- { entries.(1) with Cs_sched.Schedule.cluster = 0 };
  let bad = { sched with Cs_sched.Schedule.entries } in
  check_bool "off-home rejected" true
    (match Cs_sched.Validator.check bad with Error _ -> true | Ok () -> false)

(* Mesh route corruption: producer chain on tile 0 of a 1x4 Raw row,
   consumer on tile 3, so the good schedule carries one multi-hop
   transfer whose route the validator re-derives and re-times. *)
let raw1x4 = Cs_machine.Raw.create ~rows:1 ~cols:4 ()

let mesh_schedule () =
  let region = base_region () in
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of raw1x4)
      region.Cs_ddg.Region.graph
  in
  Cs_sched.List_scheduler.run ~machine:raw1x4 ~assignment:[| 0; 0; 3 |]
    ~priority:(Cs_sched.Priority.alap a) ~analysis:a region

let mesh_rejects what tamper =
  let sched = mesh_schedule () in
  let bad = { sched with Cs_sched.Schedule.comms = tamper sched.Cs_sched.Schedule.comms } in
  check_bool what true
    (match Cs_sched.Validator.check bad with Error _ -> true | Ok () -> false)

let test_mesh_good_passes () =
  check_bool "valid" true (Cs_sched.Validator.check (mesh_schedule ()) = Ok ())

let test_mesh_rejects_skipped_hop () =
  (* Arriving one cycle early is exactly a route with one hop dropped. *)
  mesh_rejects "skipped hop" (fun comms ->
      List.map
        (fun c -> { c with Cs_sched.Schedule.arrive = c.Cs_sched.Schedule.arrive - 1 })
        comms)

let test_mesh_rejects_wrong_direction () =
  (* The transfer claims to run 3 -> 0: its source is no longer the
     producer's tile. *)
  mesh_rejects "wrong direction" (fun comms ->
      List.map
        (fun c ->
          { c with Cs_sched.Schedule.src = c.Cs_sched.Schedule.dst;
            dst = c.Cs_sched.Schedule.src })
        comms)

let test_mesh_rejects_wrong_destination () =
  (* Rerouting the value to tile 1 leaves the consumer on tile 3 with no
     delivery. *)
  mesh_rejects "wrong destination" (fun comms ->
      List.map (fun c -> { c with Cs_sched.Schedule.dst = 1 }) comms)

let test_mesh_rejects_link_collision () =
  (* A second, otherwise-legal transfer that grabs the 0->1 link on the
     cycle the real transfer's head flit occupies it. *)
  mesh_rejects "link collision" (fun comms ->
      match comms with
      | main :: _ ->
        { Cs_sched.Schedule.producer = 0; src = 0; dst = 1;
          depart = main.Cs_sched.Schedule.depart;
          arrive =
            main.Cs_sched.Schedule.depart
            + Cs_machine.Machine.comm_latency raw1x4 ~src:0 ~dst:1 }
        :: comms
      | [] -> Alcotest.fail "mesh schedule has no transfer")

let test_check_exn_raises () =
  let sched = good_schedule () in
  let entries = Array.copy sched.Cs_sched.Schedule.entries in
  entries.(0) <- { entries.(0) with Cs_sched.Schedule.cluster = 9 };
  let bad = { sched with Cs_sched.Schedule.entries } in
  check_bool "raises Failure" true
    (try
       Cs_sched.Validator.check_exn bad;
       false
     with Failure _ -> true)

let test_error_messages_name_instruction () =
  let sched = good_schedule () in
  let entries = Array.copy sched.Cs_sched.Schedule.entries in
  entries.(1) <- { entries.(1) with Cs_sched.Schedule.start = 0; finish = 1 } ;
  let bad = { sched with Cs_sched.Schedule.entries } in
  match Cs_sched.Validator.check bad with
  | Ok () -> Alcotest.fail "should reject"
  | Error msgs ->
    check_bool "mentions i1" true
      (List.exists
         (fun m ->
           let rec has i =
             i + 2 <= String.length m && (String.sub m i 2 = "i1" || has (i + 1))
           in
           has 0)
         msgs)

(* Exact reports. Each case below pins the full message list the
   validator gives for one corruption, so a faster validator must keep
   its first-match rules and its wording, not just reject. *)
let messages sched =
  match Cs_sched.Validator.check sched with Ok () -> [] | Error ms -> ms

let check_messages what expected sched =
  Alcotest.(check (list string)) what expected (messages sched)

let with_comms sched comms = { sched with Cs_sched.Schedule.comms }

let the_transfer sched =
  match sched.Cs_sched.Schedule.comms with
  | [ cm ] -> cm
  | _ -> Alcotest.fail "expected exactly one transfer"

let delayed k (cm : Cs_sched.Schedule.comm) =
  { cm with Cs_sched.Schedule.depart = cm.depart + k; arrive = cm.arrive + k }

let test_first_listed_transfer_judged () =
  (* Two transfers carry i1's value to cluster 1; only the one listed
     first feeds i2. *)
  let sched = good_schedule () in
  let cm = the_transfer sched in
  let late = delayed 5 cm in
  check_messages "late one first" [ "i2 starts at 3 before value of i1 arrives at 8" ]
    (with_comms sched [ late; cm ]);
  check_messages "timely one first" [] (with_comms sched [ cm; late ])

let live_in_schedule () =
  (* i0 reads a live-in homed on cluster 0 but runs on cluster 1. *)
  let b = Cs_ddg.Builder.create ~name:"li" () in
  let x = Cs_ddg.Builder.live_in ~home:0 b in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add x in
  let region = Cs_ddg.Builder.finish b in
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of vliw2)
      region.Cs_ddg.Region.graph
  in
  Cs_sched.List_scheduler.run ~machine:vliw2 ~assignment:[| 1 |]
    ~priority:(Cs_sched.Priority.alap a) ~analysis:a region

let test_live_in_transfer_missing () =
  let sched = live_in_schedule () in
  check_messages "valid" [] sched;
  check_messages "missing" [ "no transfer delivers live-in r0 to i0 on cluster 1" ]
    (with_comms sched [])

let test_live_in_transfer_late () =
  let sched = live_in_schedule () in
  let cm = the_transfer sched in
  check_messages "late" [ "i0 reads live-in r0 at 1 before it arrives at 4" ]
    (with_comms sched [ delayed 3 cm ])

let test_transfer_without_route () =
  (* The schedule is legal on a healthy 1x2 mesh; with the only link
     dead, its transfer has no route, and both the dependence check and
     the link check say so. *)
  let healthy = Cs_machine.Raw.create ~rows:1 ~cols:2 () in
  let region = base_region () in
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of healthy)
      region.Cs_ddg.Region.graph
  in
  let sched =
    Cs_sched.List_scheduler.run ~machine:healthy ~assignment:[| 0; 0; 1 |]
      ~priority:(Cs_sched.Priority.alap a) ~analysis:a region
  in
  check_messages "healthy" [] sched;
  let cut = Cs_machine.Machine.degrade healthy [ Cs_resil.Fault.Dead_link (0, 1) ] in
  check_messages "cut"
    [ "transfer 0->1 has no route: unreachable: no route from 0 to 1";
      "transfer of i1 (0->1) has no route: unreachable: no route from 0 to 1" ]
    { sched with Cs_sched.Schedule.machine = cut }

let test_transfer_unit_oversubscribed () =
  (* A second transfer leaves cluster 0 in the same cycle as the real
     one; the cluster has one transfer unit. *)
  let sched = good_schedule () in
  let cm = the_transfer sched in
  check_messages "oversubscribed"
    [ "cluster 0 issues 2 transfers at cycle 2 (capacity 1)" ]
    (with_comms sched [ cm; { cm with Cs_sched.Schedule.producer = 0 } ])

let () =
  Alcotest.run "cs_sched.validator"
    [
      ( "validator",
        [
          Alcotest.test_case "good passes" `Quick test_good_passes;
          Alcotest.test_case "single cluster passes" `Quick test_good_single_cluster_passes;
          Alcotest.test_case "bad cluster" `Quick test_rejects_bad_cluster;
          Alcotest.test_case "incompatible unit" `Quick test_rejects_incompatible_unit;
          Alcotest.test_case "negative start" `Quick test_rejects_negative_start;
          Alcotest.test_case "wrong latency" `Quick test_rejects_wrong_latency;
          Alcotest.test_case "issue conflict" `Quick test_rejects_issue_conflict;
          Alcotest.test_case "dependence violation" `Quick test_rejects_dependence_violation;
          Alcotest.test_case "missing transfer" `Quick test_rejects_missing_transfer;
          Alcotest.test_case "transfer latency" `Quick test_rejects_transfer_wrong_latency;
          Alcotest.test_case "early departure" `Quick test_rejects_transfer_before_producer;
          Alcotest.test_case "preplaced off home" `Quick test_rejects_preplaced_nonmem_off_home;
          Alcotest.test_case "mesh good passes" `Quick test_mesh_good_passes;
          Alcotest.test_case "mesh skipped hop" `Quick test_mesh_rejects_skipped_hop;
          Alcotest.test_case "mesh wrong direction" `Quick test_mesh_rejects_wrong_direction;
          Alcotest.test_case "mesh wrong destination" `Quick test_mesh_rejects_wrong_destination;
          Alcotest.test_case "mesh link collision" `Quick test_mesh_rejects_link_collision;
          Alcotest.test_case "check_exn raises" `Quick test_check_exn_raises;
          Alcotest.test_case "messages name instr" `Quick test_error_messages_name_instruction;
          Alcotest.test_case "first listed transfer judged" `Quick test_first_listed_transfer_judged;
          Alcotest.test_case "live-in transfer missing" `Quick test_live_in_transfer_missing;
          Alcotest.test_case "live-in transfer late" `Quick test_live_in_transfer_late;
          Alcotest.test_case "transfer without route" `Quick test_transfer_without_route;
          Alcotest.test_case "transfer unit oversubscribed" `Quick test_transfer_unit_oversubscribed;
        ] );
    ]
