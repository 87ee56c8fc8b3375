(* Tests for the list scheduler, its ready queue, reservations,
   priorities, comm. *)

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0x5EAD_0DE in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vliw2 = Cs_machine.Vliw.create ~n_clusters:2 ()
let raw22 = Cs_machine.Raw.create ~rows:2 ~cols:2 ()

(* --- Reservation --- *)

let test_reservation_basics () =
  let r = Cs_sched.Reservation.create () in
  check_bool "free initially" true (Cs_sched.Reservation.is_free r 5);
  Cs_sched.Reservation.book r 5;
  check_bool "booked" false (Cs_sched.Reservation.is_free r 5);
  check_int "first free skips" 6 (Cs_sched.Reservation.first_free_from r 5);
  check_int "before untouched" 4 (Cs_sched.Reservation.first_free_from r 4)

let test_reservation_double_book () =
  let r = Cs_sched.Reservation.create () in
  Cs_sched.Reservation.book r 2;
  check_bool "double raises resource conflict" true
    (try
       Cs_sched.Reservation.book r 2;
       false
     with Cs_resil.Error.Error (Cs_resil.Error.Resource_conflict _) -> true)

let test_reservation_growth () =
  let r = Cs_sched.Reservation.create () in
  Cs_sched.Reservation.book r 1000;
  check_bool "far cycle booked" false (Cs_sched.Reservation.is_free r 1000);
  Alcotest.(check (list int)) "booked cycles" [ 1000 ] (Cs_sched.Reservation.booked_cycles r)

let test_reservation_negative () =
  let r = Cs_sched.Reservation.create () in
  check_bool "negative raises invalid input" true
    (try
       Cs_sched.Reservation.book r (-1);
       false
     with Cs_resil.Error.Error (Cs_resil.Error.Invalid_input _) -> true)

(* --- Comm.deliver --- *)

let test_deliver_books_transfer () =
  let comm = Cs_sched.Comm.create vliw2 in
  (* Crossbar latency 1: ready at 3 -> arrives at 4. *)
  check_int "arrives" 4 (Cs_sched.Comm.deliver comm ~producer:0 ~src:0 ~dst:1 ~ready:3);
  check_int "one booking" 1 (List.length (Cs_sched.Comm.bookings comm))

let test_deliver_same_cluster () =
  let comm = Cs_sched.Comm.create vliw2 in
  check_int "local now" 2 (Cs_sched.Comm.deliver comm ~producer:0 ~src:1 ~dst:1 ~ready:2);
  check_int "nothing booked" 0 (List.length (Cs_sched.Comm.bookings comm))

let test_deliver_memo_hit () =
  let comm = Cs_sched.Comm.create vliw2 in
  let first = Cs_sched.Comm.deliver comm ~producer:7 ~src:0 ~dst:1 ~ready:0 in
  check_int "memo reuses the arrival" first
    (Cs_sched.Comm.deliver comm ~producer:7 ~src:0 ~dst:1 ~ready:5);
  check_int "one booking" 1 (List.length (Cs_sched.Comm.bookings comm))

(* --- Priority --- *)

let test_priority_alap_orders_critical_first () =
  let b = Cs_ddg.Builder.create ~name:"p" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let long = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fdiv k in
  let _j = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fadd long (Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Mov k) in
  let region = Cs_ddg.Builder.finish b in
  let a = Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of vliw2) region.Cs_ddg.Region.graph in
  let alap = Cs_sched.Priority.alap a in
  check_bool "fdiv before mov" true (alap.(1) < alap.(2))

(* --- Ready queue --- *)

module Ready = Cs_sched.Ready

(* The order the ready queue must keep, written out here: priority,
   then the greater height, then the lower id. *)
let compare_with_tiebreak ~priority ~height i j =
  let c = Int.compare priority.(i) priority.(j) in
  if c <> 0 then c
  else
    let c = Int.compare height.(j) height.(i) in
    if c <> 0 then c else Int.compare i j

(* A queue over ids 0..n-1 keyed by [priority] (height 0 throughout),
   every id pushed. *)
let queue_of ?height priority =
  let n = Array.length priority in
  let height = match height with Some h -> h | None -> Array.make n 0 in
  let q = Ready.create ~priority ~height in
  for i = 0 to n - 1 do
    Ready.push q i
  done;
  q

let drain q =
  let rec go acc = match Ready.pop q with -1 -> List.rev acc | i -> go (i :: acc) in
  go []

let test_heap_sorted_drain () =
  let priority = [| 5; 3; 8; 1; 9; 2; 7 |] in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ]
    (List.map (fun i -> priority.(i)) (drain (queue_of priority)))

let test_heap_empty () =
  let q = Ready.create ~priority:[||] ~height:[||] in
  check_bool "is_empty" true (Ready.is_empty q);
  check_int "pop none" (-1) (Ready.pop q);
  check_int "peek none" (-1) (Ready.peek q)

let test_heap_peek_does_not_remove () =
  let q = queue_of [| 4; 2 |] in
  check_int "peek min" 1 (Ready.peek q);
  check_int "length unchanged" 2 (Ready.length q)

let test_heap_duplicates () =
  (* Equal priorities all pop, in id order. *)
  Alcotest.(check (list int)) "dups kept" [ 2; 0; 1; 3 ] (drain (queue_of [| 3; 3; 1; 3 |]))

let test_heap_custom_order () =
  (* Negated priorities give a max-first drain. *)
  check_int "max first via negation" 1 (Ready.pop (queue_of [| -1; -5; -3 |]))

let test_heap_random_qcheck =
  let prop =
    QCheck.Test.make ~count:200 ~name:"heap drains sorted"
      QCheck.(list int)
      (fun xs ->
        let priority = Array.of_list xs in
        List.map (fun i -> priority.(i)) (drain (queue_of priority))
        = List.sort Int.compare xs)
  in
  to_alcotest prop

(* Pushes and pops interleave, as in a list scheduler: a random mix of
   operations, checked against the written-out order on the set the
   queue holds. Keys mix small values (many ties) with the extremes of
   the int range. *)
let test_ready_order_qcheck =
  let key =
    QCheck.Gen.(
      frequency
        [ (6, int_range (-3) 3);
          (2, oneofl [ min_int; min_int + 1; max_int - 1; max_int; 0; -1 ]);
          (2, int) ])
  in
  let case =
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      triple (array_size (return n) key) (array_size (return n) key)
        (list_size (int_range 0 120) (int_range 0 (2 * n))))
  in
  let prop =
    QCheck.Test.make ~count:300 ~name:"ready pops in tie-break order"
      (QCheck.make case)
      (fun (priority, height, ops) ->
        let n = Array.length priority in
        let q = Ready.create ~priority ~height in
        let held = ref [] and next = ref 0 in
        let cmp = compare_with_tiebreak ~priority ~height in
        let pop () =
          let expected = match List.sort cmp !held with [] -> -1 | x :: _ -> x in
          held := List.filter (fun x -> x <> expected) !held;
          Ready.pop q = expected
        in
        (* An op below [n] pushes the next unpushed id, if any; the rest
           pop. The queue is drained at the end. *)
        List.for_all
          (fun op ->
            if op < n && !next < n then begin
              Ready.push q !next;
              held := !next :: !held;
              incr next;
              Ready.length q = List.length !held
            end
            else pop ())
          ops
        && List.for_all (fun _ -> pop ()) (List.init (List.length !held + 1) Fun.id))
  in
  to_alcotest prop

let test_priority_tiebreak_by_height () =
  let q = queue_of ~height:[| 1; 5 |] [| 0; 0 |] in
  check_int "taller first" 1 (Ready.pop q)

let test_priority_tiebreak_by_id () =
  let q = queue_of ~height:[| 3; 3 |] [| 0; 0 |] in
  check_int "lower id first" 0 (Ready.pop q)

let test_ready_rejects_out_of_range () =
  let q = Ready.create ~priority:[| 0; 0 |] ~height:[| 0; 0 |] in
  check_bool "push 2 raises" true
    (try
       Ready.push q 2;
       false
     with Invalid_argument _ -> true)

(* --- List scheduler on hand graphs --- *)

let serial_chain n =
  let b = Cs_ddg.Builder.create ~name:"chain" () in
  let cur = ref (Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const) in
  for _ = 2 to n do
    cur := Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add !cur
  done;
  Cs_ddg.Builder.finish b

let schedule ?assignment machine region =
  let a =
    Cs_ddg.Analysis.make ~latency:(Cs_machine.Machine.latency_of machine)
      region.Cs_ddg.Region.graph
  in
  let n = Cs_ddg.Graph.n region.Cs_ddg.Region.graph in
  let assignment = match assignment with Some x -> x | None -> Array.make n 0 in
  Cs_sched.List_scheduler.run ~machine ~assignment ~priority:(Cs_sched.Priority.alap a)
    ~analysis:a region

let test_serial_chain_makespan () =
  let region = serial_chain 5 in
  let sched = schedule vliw2 region in
  (* const(1) + 4 adds(1) = 5 cycles, no gaps. *)
  check_int "makespan 5" 5 (Cs_sched.Schedule.makespan sched);
  Cs_sched.Validator.check_exn sched

let test_parallel_on_two_clusters () =
  let b = Cs_ddg.Builder.create ~name:"par" () in
  (* Two independent fp chains; on two clusters they overlap fully. *)
  let mk () =
    let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
    ignore (Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k)
  in
  mk (); mk ();
  let region = Cs_ddg.Builder.finish b in
  let together = schedule vliw2 region in
  let spread = schedule ~assignment:[| 0; 0; 1; 1 |] vliw2 region in
  check_int "spread overlaps" 5 (Cs_sched.Schedule.makespan spread);
  check_bool "split no worse" true
    (Cs_sched.Schedule.makespan spread <= Cs_sched.Schedule.makespan together);
  Cs_sched.Validator.check_exn spread

let cross_cluster_pair machine =
  let b = Cs_ddg.Builder.create ~name:"x" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _c = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let region = Cs_ddg.Builder.finish b in
  schedule ~assignment:[| 0; 1 |] machine region

let test_crossbar_transfer_latency () =
  let sched = cross_cluster_pair vliw2 in
  (* const finishes at 1; transfer departs 1, arrives 2; add starts 2. *)
  check_int "consumer start" 2 sched.Cs_sched.Schedule.entries.(1).Cs_sched.Schedule.start;
  check_int "one transfer" 1 (Cs_sched.Schedule.n_comms sched);
  Cs_sched.Validator.check_exn sched

let test_mesh_transfer_latency () =
  let sched = cross_cluster_pair raw22 in
  (* Neighbor latency 3: const finish 1, arrive 4. *)
  check_int "consumer start" 4 sched.Cs_sched.Schedule.entries.(1).Cs_sched.Schedule.start;
  Cs_sched.Validator.check_exn sched

let test_transfer_memoized () =
  let b = Cs_ddg.Builder.create ~name:"fanout" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _u1 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let _u2 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k in
  let region = Cs_ddg.Builder.finish b in
  let sched = schedule ~assignment:[| 0; 1; 1 |] vliw2 region in
  check_int "value moved once" 1 (Cs_sched.Schedule.n_comms sched);
  Cs_sched.Validator.check_exn sched

let test_remote_memory_penalty () =
  let b = Cs_ddg.Builder.create ~name:"remote" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _l = Cs_ddg.Builder.load b ~preplace:1 addr in
  let region = Cs_ddg.Builder.finish b in
  let local = schedule ~assignment:[| 1; 1 |] vliw2 region in
  let remote = schedule ~assignment:[| 0; 0 |] vliw2 region in
  let lat c sched =
    sched.Cs_sched.Schedule.entries.(c).Cs_sched.Schedule.finish
    - sched.Cs_sched.Schedule.entries.(c).Cs_sched.Schedule.start
  in
  check_int "local load 2" 2 (lat 1 local);
  check_int "remote load 3" 3 (lat 1 remote);
  Cs_sched.Validator.check_exn remote

let test_unschedulable_preplaced_off_home_on_mesh () =
  let b = Cs_ddg.Builder.create ~name:"bad" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _l = Cs_ddg.Builder.load b ~preplace:1 addr in
  let region = Cs_ddg.Builder.finish b in
  check_bool "raises" true
    (try
       ignore (schedule ~assignment:[| 0; 0 |] raw22 region);
       false
     with Cs_resil.Error.Error (Cs_resil.Error.Infeasible _) -> true)

let test_unschedulable_incapable_cluster () =
  let machine =
    Cs_machine.Machine.make ~name:"intonly"
      ~fus:[| [| Cs_machine.Fu.Int_alu |] |]
      ~topology:(Cs_machine.Topology.Crossbar { latency = 1 })
      ()
  in
  let b = Cs_ddg.Builder.create ~name:"fp" () in
  let k = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _f = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd k in
  let region = Cs_ddg.Builder.finish b in
  check_bool "raises" true
    (try
       ignore (schedule machine region);
       false
     with Cs_resil.Error.Error (Cs_resil.Error.Infeasible _) -> true)

let test_issue_width_respected () =
  (* Five independent consts on one Raw tile (1 FU): five cycles. *)
  let b = Cs_ddg.Builder.create ~name:"five" () in
  for _ = 1 to 5 do
    ignore (Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const)
  done;
  let region = Cs_ddg.Builder.finish b in
  let sched = schedule (Cs_machine.Raw.with_tiles 1) region in
  check_int "serialized" 5 (Cs_sched.Schedule.makespan sched)

let test_transfer_unit_contention () =
  (* Two producers on cluster 0 feeding cluster 1 the same cycle: the
     single transfer unit serializes departures. *)
  let b = Cs_ddg.Builder.create ~name:"xcontend" () in
  let k1 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let k2 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _u = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Add k1 k2 in
  let region = Cs_ddg.Builder.finish b in
  let sched = schedule ~assignment:[| 0; 0; 1 |] vliw2 region in
  let departs =
    List.sort Int.compare (List.map (fun c -> c.Cs_sched.Schedule.depart) sched.Cs_sched.Schedule.comms)
  in
  check_int "two transfers" 2 (List.length departs);
  check_bool "serialized departures" true (List.nth departs 0 <> List.nth departs 1);
  Cs_sched.Validator.check_exn sched

let test_mesh_link_wormhole () =
  (* On a 1x4 mesh, two values crossing the same middle link contend. *)
  let machine = Cs_machine.Raw.create ~rows:1 ~cols:4 () in
  let b = Cs_ddg.Builder.create ~name:"links" () in
  let k1 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let k2 = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _u1 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k1 in
  let _u2 = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Add k2 in
  let region = Cs_ddg.Builder.finish b in
  let sched = schedule ~assignment:[| 0; 1; 3; 3 |] machine region in
  Cs_sched.Validator.check_exn sched;
  check_int "two transfers" 2 (Cs_sched.Schedule.n_comms sched)

let test_schedule_stats () =
  let region = serial_chain 4 in
  let sched = schedule vliw2 region in
  let occ = Cs_sched.Schedule.cluster_occupancy sched in
  check_int "all on cluster 0" 4 occ.(0);
  check_int "none on cluster 1" 0 occ.(1);
  check_bool "utilization in (0,1]" true
    (Cs_sched.Schedule.utilization sched > 0.0 && Cs_sched.Schedule.utilization sched <= 1.0)

let test_schedule_pp_renders () =
  let sched = schedule vliw2 (serial_chain 3) in
  let s = Format.asprintf "%a" Cs_sched.Schedule.pp sched in
  check_bool "mentions makespan" true (String.length s > 20)

let () =
  Alcotest.run "cs_sched"
    [
      ( "reservation",
        [
          Alcotest.test_case "basics" `Quick test_reservation_basics;
          Alcotest.test_case "double book" `Quick test_reservation_double_book;
          Alcotest.test_case "growth" `Quick test_reservation_growth;
          Alcotest.test_case "negative" `Quick test_reservation_negative;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek keeps" `Quick test_heap_peek_does_not_remove;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
          test_heap_random_qcheck;
          test_ready_order_qcheck;
          Alcotest.test_case "out of range" `Quick test_ready_rejects_out_of_range;
        ] );
      ( "comm",
        [
          Alcotest.test_case "deliver books" `Quick test_deliver_books_transfer;
          Alcotest.test_case "deliver local" `Quick test_deliver_same_cluster;
          Alcotest.test_case "deliver memo" `Quick test_deliver_memo_hit;
        ] );
      ( "priority",
        [
          Alcotest.test_case "alap critical first" `Quick test_priority_alap_orders_critical_first;
          Alcotest.test_case "tiebreak height" `Quick test_priority_tiebreak_by_height;
          Alcotest.test_case "tiebreak id" `Quick test_priority_tiebreak_by_id;
        ] );
      ( "list_scheduler",
        [
          Alcotest.test_case "serial chain" `Quick test_serial_chain_makespan;
          Alcotest.test_case "parallel split" `Quick test_parallel_on_two_clusters;
          Alcotest.test_case "crossbar latency" `Quick test_crossbar_transfer_latency;
          Alcotest.test_case "mesh latency" `Quick test_mesh_transfer_latency;
          Alcotest.test_case "transfer memoized" `Quick test_transfer_memoized;
          Alcotest.test_case "remote mem penalty" `Quick test_remote_memory_penalty;
          Alcotest.test_case "preplaced off home" `Quick test_unschedulable_preplaced_off_home_on_mesh;
          Alcotest.test_case "incapable cluster" `Quick test_unschedulable_incapable_cluster;
          Alcotest.test_case "issue width" `Quick test_issue_width_respected;
          Alcotest.test_case "transfer contention" `Quick test_transfer_unit_contention;
          Alcotest.test_case "mesh wormhole" `Quick test_mesh_link_wormhole;
          Alcotest.test_case "stats" `Quick test_schedule_stats;
          Alcotest.test_case "pp renders" `Quick test_schedule_pp_renders;
        ] );
    ]
