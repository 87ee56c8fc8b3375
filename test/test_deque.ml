(* Work-stealing deque: single-owner LIFO pop, thief FIFO steal, and
   the exactly-once delivery contract under real 4-domain contention.
   Everything is bounded — no test may hang runtest. *)

module Deque = Cs_svc.Deque
module Squeue = Cs_svc.Squeue

let test_capacity_rounds_to_power_of_two () =
  Alcotest.(check int) "5 rounds to 8" 8 (Deque.capacity (Deque.create ~capacity:5));
  Alcotest.(check int) "8 stays 8" 8 (Deque.capacity (Deque.create ~capacity:8));
  Alcotest.(check int) "1 stays 1" 1 (Deque.capacity (Deque.create ~capacity:1));
  match Deque.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must raise"

let test_owner_pop_is_lifo () =
  let d = Deque.create ~capacity:8 in
  List.iter (fun i -> Alcotest.(check bool) "push" true (Deque.push d i)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Deque.length d);
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "lifo order" (Some expect) (Deque.pop d))
    [ 4; 3; 2; 1 ];
  Alcotest.(check (option int)) "empty pops None" None (Deque.pop d)

let test_steal_is_fifo () =
  let d = Deque.create ~capacity:8 in
  List.iter (fun i -> ignore (Deque.push d i)) [ 1; 2; 3; 4 ];
  (* thieves migrate the oldest item; the owner keeps the newest *)
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "fifo order" (Some expect) (Deque.steal d))
    [ 1; 2 ];
  Alcotest.(check (option int)) "owner still pops newest" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "last item by steal" (Some 3) (Deque.steal d);
  Alcotest.(check (option int)) "drained" None (Deque.steal d)

let test_full_deque_refuses_push () =
  let d = Deque.create ~capacity:4 in
  for i = 0 to 3 do
    Alcotest.(check bool) "push under capacity" true (Deque.push d i)
  done;
  Alcotest.(check bool) "push at capacity refused" false (Deque.push d 99);
  ignore (Deque.steal d);
  Alcotest.(check bool) "slot freed by steal" true (Deque.push d 100)

(* The core safety contract under genuine 4-domain contention: one
   owner interleaving pushes and pops, three thieves stealing
   concurrently. Every pushed item must come out exactly once, across
   all four domains, with none lost and none duplicated. *)
let test_exactly_once_under_contention () =
  let total = 20_000 in
  let d = Deque.create ~capacity:64 in
  let seen = Array.make total (Atomic.make 0) in
  for i = 0 to total - 1 do
    seen.(i) <- Atomic.make 0
  done;
  let claim i = Atomic.incr seen.(i) in
  let done_pushing = Atomic.make false in
  let thieves =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Deque.steal d with
              | Some i ->
                claim i;
                loop ()
              | None ->
                if not (Atomic.get done_pushing) || Deque.length d > 0 then begin
                  Domain.cpu_relax ();
                  loop ()
                end
            in
            loop ()))
  in
  (* owner: push each item (retrying while thieves make room), popping
     a few of its own along the way — the LIFO half of the contract *)
  for i = 0 to total - 1 do
    let rec push () =
      if not (Deque.push d i) then begin
        (match Deque.pop d with Some j -> claim j | None -> ());
        push ()
      end
    in
    push ();
    if i land 7 = 0 then match Deque.pop d with Some j -> claim j | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some j ->
      claim j;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_pushing true;
  List.iter Domain.join thieves;
  let lost = ref 0 and duplicated = ref 0 in
  Array.iter
    (fun a ->
      match Atomic.get a with
      | 1 -> ()
      | 0 -> incr lost
      | _ -> incr duplicated)
    seen;
  Alcotest.(check int) "no item lost" 0 !lost;
  Alcotest.(check int) "no item duplicated" 0 !duplicated

(* The overflow protocol the server's workers use: a refused push lands in
   a global Squeue, and consumers scan deque-then-overflow. Together
   the two structures must still deliver every item exactly once. *)
let test_overflow_to_global_roundtrip () =
  let total = 5_000 in
  let d = Deque.create ~capacity:8 in
  let overflow = Squeue.create ~capacity:total in
  let produced_via_overflow = ref 0 in
  let seen = Atomic.make 0 in
  let stop = Atomic.make false in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Deque.steal d with
              | Some _ ->
                Atomic.incr seen;
                loop ()
              | None ->
                (match Squeue.try_pop overflow with
                | Some _ ->
                  Atomic.incr seen;
                  loop ()
                | None ->
                  if not (Atomic.get stop) then begin
                    Domain.cpu_relax ();
                    loop ()
                  end)
            in
            loop ()))
  in
  for i = 0 to total - 1 do
    if not (Deque.push d i) then begin
      Alcotest.(check bool) "overflow accepts" true (Squeue.try_push overflow i);
      incr produced_via_overflow
    end
  done;
  (* wait (bounded) for the consumers to drain both structures *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get seen < total && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  List.iter Domain.join consumers;
  Alcotest.(check bool) "tiny deque actually overflowed" true
    (!produced_via_overflow > 0);
  Alcotest.(check int) "every item delivered exactly once" total (Atomic.get seen)

let () =
  Alcotest.run "deque"
    [
      ( "deque",
        [
          Alcotest.test_case "capacity power of two" `Quick
            test_capacity_rounds_to_power_of_two;
          Alcotest.test_case "owner pop LIFO" `Quick test_owner_pop_is_lifo;
          Alcotest.test_case "steal FIFO" `Quick test_steal_is_fifo;
          Alcotest.test_case "full refuses push" `Quick test_full_deque_refuses_push;
          Alcotest.test_case "exactly-once under 4-domain contention" `Slow
            test_exactly_once_under_contention;
          Alcotest.test_case "overflow-to-global roundtrip" `Slow
            test_overflow_to_global_roundtrip;
        ] );
    ]
