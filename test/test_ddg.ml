(* Unit tests for Cs_ddg: opcodes, builder, graph, analyses, regions. *)

open Cs_ddg

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* A diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 built from registers. *)
let diamond () =
  let b = Builder.create ~name:"diamond" () in
  let a = Builder.op0 b Opcode.Const in
  let l = Builder.op1 b Opcode.Fadd a in
  let r = Builder.op1 b Opcode.Fmul a in
  let _j = Builder.op2 b Opcode.Fadd l r in
  Builder.finish b

(* --- Opcode --- *)

let test_opcode_classes () =
  check_bool "add is int" true (Opcode.cls Opcode.Add = Opcode.Int_op);
  check_bool "mul is mul" true (Opcode.cls Opcode.Mul = Opcode.Mul_op);
  check_bool "load is mem" true (Opcode.cls Opcode.Load = Opcode.Mem_op);
  check_bool "fadd is float" true (Opcode.cls Opcode.Fadd = Opcode.Float_op);
  check_bool "fdiv is fdiv" true (Opcode.cls Opcode.Fdiv = Opcode.Fdiv_op);
  check_bool "const is move" true (Opcode.cls Opcode.Const = Opcode.Move_op);
  check_bool "transfer is comm" true (Opcode.cls Opcode.Transfer = Opcode.Comm_op)

let test_opcode_memory () =
  check_bool "load mem" true (Opcode.is_memory Opcode.Load);
  check_bool "store mem" true (Opcode.is_memory Opcode.Store);
  check_bool "add not mem" false (Opcode.is_memory Opcode.Add)

let test_opcode_writes () =
  check_bool "store writes nothing" false (Opcode.writes_register Opcode.Store);
  List.iter
    (fun op -> if op <> Opcode.Store then check_bool "writes" true (Opcode.writes_register op))
    Opcode.all

let test_opcode_strings_unique () =
  let names = List.map Opcode.to_string Opcode.all in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names))

(* --- Builder / Graph --- *)

let test_builder_diamond_shape () =
  let region = diamond () in
  let g = region.Region.graph in
  check_int "4 nodes" 4 (Graph.n g);
  check_int "4 edges" 4 (Graph.n_edges g);
  check_ints "roots" [ 0 ] (Graph.roots g);
  check_ints "leaves" [ 3 ] (Graph.leaves g);
  check_ints "succs of 0" [ 1; 2 ] (Graph.succs g 0);
  check_ints "preds of 3" [ 1; 2 ] (Graph.preds g 3)

let test_builder_live_in () =
  let b = Builder.create ~name:"livein" () in
  let x = Builder.live_in ~home:2 b in
  let _y = Builder.op1 b Opcode.Fadd x in
  let region = Builder.finish b in
  let g = region.Region.graph in
  check_int "one instr" 1 (Graph.n g);
  check_bool "x is live-in" true (Reg.Set.mem x (Graph.live_in_regs g));
  check_bool "home recorded" true
    (Reg.Map.find_opt x region.Region.live_in_homes = Some 2)

let test_builder_store_has_no_dst () =
  let b = Builder.create ~name:"store" () in
  let addr = Builder.op0 b Opcode.Const in
  let v = Builder.op0 b Opcode.Const in
  Builder.store b ~addr v;
  let region = Builder.finish b in
  let store = Graph.instr region.Region.graph 2 in
  check_bool "no dst" true (store.Instr.dst = None);
  check_int "two srcs" 2 (List.length store.Instr.srcs)

let test_builder_preplace_recorded () =
  let b = Builder.create ~name:"pre" () in
  let addr = Builder.op0 b Opcode.Const in
  let _v = Builder.load b ~preplace:3 addr in
  let region = Builder.finish b in
  Alcotest.(check (list (pair int int))) "preplaced" [ (1, 3) ]
    (Graph.preplaced region.Region.graph)

let test_builder_mem_fence_edge () =
  let b = Builder.create ~name:"fence" () in
  let a1 = Builder.op0 b Opcode.Const in
  let v = Builder.op0 b Opcode.Const in
  Builder.store b ~addr:a1 v;
  let s1 = Builder.last_id b in
  let a2 = Builder.op0 b Opcode.Const in
  let _l = Builder.load b a2 in
  let l = Builder.last_id b in
  Builder.mem_fence_edge b s1 l;
  let region = Builder.finish b in
  check_bool "fence edge present" true (List.mem l (Graph.succs region.Region.graph s1))

let test_graph_rejects_cycle () =
  let instrs =
    [|
      Instr.make ~id:0 ~op:Opcode.Add ~dst:(Some 0) ~srcs:[] ();
      Instr.make ~id:1 ~op:Opcode.Add ~dst:(Some 1) ~srcs:[ 0 ] ();
    |]
  in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Graph.of_instrs: dependence graph has a cycle") (fun () ->
      ignore (Graph.of_instrs instrs ~extra_edges:[ (1, 0) ]))

let test_graph_rejects_duplicate_def () =
  let instrs =
    [|
      Instr.make ~id:0 ~op:Opcode.Add ~dst:(Some 0) ~srcs:[] ();
      Instr.make ~id:1 ~op:Opcode.Add ~dst:(Some 0) ~srcs:[] ();
    |]
  in
  Alcotest.check_raises "dup def"
    (Invalid_argument "Graph.of_instrs: register r0 defined twice") (fun () ->
      ignore (Graph.of_instrs instrs ~extra_edges:[]))

let test_graph_rejects_self_use () =
  let instrs = [| Instr.make ~id:0 ~op:Opcode.Add ~dst:(Some 0) ~srcs:[ 0 ] () |] in
  Alcotest.check_raises "self use"
    (Invalid_argument "Graph.of_instrs: instruction uses its own result") (fun () ->
      ignore (Graph.of_instrs instrs ~extra_edges:[]))

let test_graph_topo_is_valid () =
  let region = diamond () in
  let g = region.Region.graph in
  let order = Graph.topo_order g in
  let pos = Array.make (Graph.n g) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  for i = 0 to Graph.n g - 1 do
    List.iter (fun s -> check_bool "topo edge" true (pos.(i) < pos.(s))) (Graph.succs g i)
  done

let test_graph_neighbors_no_dups () =
  let region = diamond () in
  let g = region.Region.graph in
  let nbrs = Graph.neighbors g 1 in
  check_int "two neighbors" 2 (List.length nbrs);
  check_int "unique" 2 (List.length (List.sort_uniq Int.compare nbrs))

(* Random DAGs: several disconnected components of def-use chains, plus
   forward ordering edges that may duplicate a def-use edge. *)
let random_dag seed =
  let rng = Cs_util.Rng.create seed in
  let b = Builder.create ~name:"random" () in
  for _ = 1 to 1 + Cs_util.Rng.int rng 4 do
    let values = ref [||] and ids = ref [] in
    for _ = 1 to 1 + Cs_util.Rng.int rng 20 do
      let n = Array.length !values in
      let pick () = !values.(Cs_util.Rng.int rng n) in
      let v =
        if n = 0 || Cs_util.Rng.int rng 6 = 0 then Builder.op0 b Opcode.Const
        else if Cs_util.Rng.bool rng then Builder.op1 b Opcode.Fadd (pick ())
        else Builder.op2 b Opcode.Fmul (pick ()) (pick ())
      in
      values := Array.append !values [| v |];
      ids := Builder.last_id b :: !ids
    done;
    let ids = Array.of_list (List.rev !ids) in
    for _ = 1 to Cs_util.Rng.int rng 4 do
      let x = Cs_util.Rng.int rng (Array.length ids) and y = Cs_util.Rng.int rng (Array.length ids) in
      if x < y then Builder.mem_fence_edge b ids.(x) ids.(y)
    done
  done;
  Builder.finish b

(* Reference definitions: neighbours as a hash-set dedup of
   [preds @ succs], distances as a [Queue]-driven search over them. *)
let old_neighbors g i =
  let seen = Hashtbl.create 8 in
  let keep j = if Hashtbl.mem seen j then false else (Hashtbl.add seen j (); true) in
  List.filter keep (Graph.preds g i @ Graph.succs g i)

let old_distance_row g src =
  let dist = Array.make (Graph.n g) max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    List.iter
      (fun j ->
        if dist.(j) = max_int then begin
          dist.(j) <- dist.(i) + 1;
          Queue.add j queue
        end)
      (old_neighbors g i)
  done;
  dist

let arbitrary_dag = QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 100_000)

let prop_neighbors_unchanged =
  QCheck.Test.make ~count:200 ~name:"neighbors = dedup of preds @ succs, in order" arbitrary_dag
    (fun seed ->
      let g = (random_dag seed).Region.graph in
      List.for_all (fun i -> Graph.neighbors g i = old_neighbors g i) (List.init (Graph.n g) Fun.id))

let prop_distance_rows_unchanged =
  QCheck.Test.make ~count:200 ~name:"distance rows unchanged on random DAGs" arbitrary_dag
    (fun seed ->
      let g = (random_dag seed).Region.graph in
      let a = Analysis.make ~latency:(fun _ -> 1) g in
      List.for_all
        (fun i -> Analysis.distance_row a i = old_distance_row g i)
        (List.init (Graph.n g) Fun.id))

let test_graph_defining_instr () =
  let b = Builder.create ~name:"def" () in
  let x = Builder.op0 b Opcode.Const in
  let region = Builder.finish b in
  check_bool "found" true (Graph.defining_instr region.Region.graph x = Some 0);
  check_bool "missing" true (Graph.defining_instr region.Region.graph 99 = None)

(* --- Analysis --- *)

let unit_analysis region = Analysis.make ~latency:(fun _ -> 1) region.Region.graph

let test_analysis_diamond_unit () =
  let region = diamond () in
  let a = unit_analysis region in
  check_int "cpl" 3 (Analysis.cpl a);
  check_int "earliest root" 0 (Analysis.earliest a 0);
  check_int "earliest join" 2 (Analysis.earliest a 3);
  check_int "latest root" 0 (Analysis.latest a 0);
  check_int "slack mid" 0 (Analysis.slack a 1);
  check_int "depth join" 2 (Analysis.depth a 3);
  check_int "height root" 2 (Analysis.height a 0)

let test_analysis_latency_weighted () =
  (* const(1) -> fmul(4) -> fadd(4)  vs  const -> fadd: CPL = 1+4+4 = 9 *)
  let b = Builder.create ~name:"lat" () in
  let k = Builder.op0 b Opcode.Const in
  let m = Builder.op1 b Opcode.Fmul k in
  let _s = Builder.op2 b Opcode.Fadd m k in
  let region = Builder.finish b in
  let a = Analysis.make ~latency:(Cs_machine.Machine.latency_of (Cs_machine.Vliw.create ())) region.Region.graph in
  check_int "cpl 9" 9 (Analysis.cpl a);
  check_int "fadd earliest" 5 (Analysis.earliest a 2);
  check_int "const slack 0" 0 (Analysis.slack a 0)

let test_analysis_rejects_zero_latency () =
  let region = diamond () in
  Alcotest.check_raises "latency >= 1"
    (Invalid_argument "Analysis.make: latency must be >= 1") (fun () ->
      ignore (Analysis.make ~latency:(fun _ -> 0) region.Region.graph))

let test_analysis_critical_path () =
  let region = diamond () in
  let a = unit_analysis region in
  let cp = Analysis.critical_path a in
  check_int "path length 3" 3 (List.length cp);
  check_bool "starts at root" true (List.hd cp = 0);
  check_bool "zero slack all" true (List.for_all (fun i -> Analysis.slack a i = 0) cp)

let test_analysis_critical_instrs () =
  let b = Builder.create ~name:"slackful" () in
  let k = Builder.op0 b Opcode.Const in
  let long = Builder.op1 b Opcode.Fdiv k in
  let short = Builder.op1 b Opcode.Mov k in
  let _j = Builder.op2 b Opcode.Fadd long short in
  let region = Builder.finish b in
  let a =
    Analysis.make ~latency:(Cs_machine.Machine.latency_of (Cs_machine.Vliw.create ()))
      region.Region.graph
  in
  check_bool "mov has slack" true (Analysis.slack a short > 0);
  check_bool "fdiv critical" true (List.mem long (Analysis.critical_instrs a))

let test_analysis_distance () =
  let region = diamond () in
  let a = unit_analysis region in
  check_int "0 to 3 via either" 2 (Analysis.distance a 0 3);
  check_int "1 to 2 via 0 or 3" 2 (Analysis.distance a 1 2);
  check_int "self" 0 (Analysis.distance a 1 1)

let test_analysis_distance_disconnected () =
  let b = Builder.create ~name:"disc" () in
  let _x = Builder.op0 b Opcode.Const in
  let _y = Builder.op0 b Opcode.Const in
  let region = Builder.finish b in
  let a = unit_analysis region in
  check_int "unreachable" max_int (Analysis.distance a 0 1)

let test_analysis_multi_source () =
  let region = diamond () in
  let a = unit_analysis region in
  let d = Analysis.multi_source_distance a ~sources:[ 1; 2 ] in
  check_int "source" 0 d.(1);
  check_int "join at 1" 1 d.(3);
  check_int "root at 1" 1 d.(0)

let test_analysis_max_depth () =
  let region = diamond () in
  check_int "max depth" 2 (Analysis.max_depth (unit_analysis region))

(* --- Region / Dot --- *)

let test_region_density () =
  let b = Builder.create ~name:"dens" () in
  let addr = Builder.op0 b Opcode.Const in
  let _l = Builder.load b ~preplace:0 addr in
  let region = Builder.finish b in
  check_int "preplaced count" 1 (Region.n_preplaced region);
  Alcotest.(check (float 1e-9)) "density" 0.5 (Region.preplacement_density region)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_output () =
  let region = diamond () in
  let s = Dot.to_string region.Region.graph in
  check_bool "digraph" true (String.length s > 8 && String.sub s 0 7 = "digraph");
  check_bool "has an edge" true (contains s "n0 -> n1");
  check_bool "has join edge" true (contains s "n2 -> n3")

let test_dot_preplaced_triangle () =
  let b = Builder.create ~name:"tri" () in
  let addr = Builder.op0 b Opcode.Const in
  let _l = Builder.load b ~preplace:1 addr in
  let region = Builder.finish b in
  let s = Dot.to_string region.Region.graph in
  check_bool "triangle shape" true (contains s "triangle")

(* --- Textual --- *)

let sample_text =
  "region dot2\n\
   livein r10 @0\n\
   const r0\n\
   load r1 <- r0 @2\n\
   fmul r2 <- r1 r10\n\
   store - <- r0 r2 @2\n\
   liveout r2\n"

let test_textual_parse () =
  match Textual.of_string sample_text with
  | Error msg -> Alcotest.fail msg
  | Ok region ->
    check_int "four instrs" 4 (Graph.n region.Region.graph);
    check_int "two preplaced" 2 (List.length (Graph.preplaced region.Region.graph));
    check_int "one live-in" 1 (Reg.Set.cardinal (Graph.live_in_regs region.Region.graph));
    check_int "one live-out" 1 (Reg.Set.cardinal region.Region.live_outs);
    check_bool "live-in homed" true
      (Reg.Map.cardinal region.Region.live_in_homes = 1)

let test_textual_roundtrip () =
  match Textual.of_string sample_text with
  | Error msg -> Alcotest.fail msg
  | Ok region ->
    let text = Textual.to_string region in
    (match Textual.of_string text with
    | Error msg -> Alcotest.fail ("reparse: " ^ msg)
    | Ok region2 ->
      check_int "same size" (Graph.n region.Region.graph) (Graph.n region2.Region.graph);
      check_int "same edges" (Graph.n_edges region.Region.graph)
        (Graph.n_edges region2.Region.graph);
      check_int "same preplaced" 2 (List.length (Graph.preplaced region2.Region.graph)))

let test_textual_roundtrip_generated () =
  let region = Cs_workloads.Jacobi.generate ~clusters:4 () in
  match Textual.of_string (Textual.to_string region) with
  | Error msg -> Alcotest.fail msg
  | Ok region2 ->
    check_int "same size" (Graph.n region.Region.graph) (Graph.n region2.Region.graph);
    check_int "same edges" (Graph.n_edges region.Region.graph)
      (Graph.n_edges region2.Region.graph)

let test_textual_edge_line () =
  let text = "region fences\nconst r0\nconst r1\nstore - <- r0 r1\nload r2 <- r0\nedge 2 3\n" in
  match Textual.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok region ->
    check_bool "fence edge" true (List.mem 3 (Graph.succs region.Region.graph 2))

let test_textual_implicit_live_in () =
  (* Reading an undeclared register makes it a live-in. *)
  match Textual.of_string "region f\nfadd r1 <- r9 r9\n" with
  | Error msg -> Alcotest.fail msg
  | Ok region ->
    check_int "implicit live-in" 1 (Reg.Set.cardinal (Graph.live_in_regs region.Region.graph))

let test_textual_rejects_unknown_opcode () =
  check_bool "rejected" true
    (match Textual.of_string "region x\nfrobnicate r0\n" with Error _ -> true | Ok _ -> false)

let test_textual_rejects_bad_register () =
  check_bool "rejected" true
    (match Textual.of_string "region x\nconst banana\n" with Error _ -> true | Ok _ -> false)

let test_textual_rejects_unknown_liveout () =
  check_bool "rejected" true
    (match Textual.of_string "region x\nconst r0\nliveout r9\n" with
    | Error _ -> true
    | Ok _ -> false)

let test_textual_comments_ignored () =
  match Textual.of_string "# header\nregion x\nconst r0 # the answer\n" with
  | Error msg -> Alcotest.fail msg
  | Ok region ->
    check_int "one instr" 1 (Graph.n region.Region.graph);
    Alcotest.(check string) "tag kept" "the answer"
      (Graph.instr region.Region.graph 0).Instr.tag

let () =
  Alcotest.run "cs_ddg"
    [
      ( "opcode",
        [
          Alcotest.test_case "classes" `Quick test_opcode_classes;
          Alcotest.test_case "memory" `Quick test_opcode_memory;
          Alcotest.test_case "writes" `Quick test_opcode_writes;
          Alcotest.test_case "names unique" `Quick test_opcode_strings_unique;
        ] );
      ( "builder/graph",
        [
          Alcotest.test_case "diamond shape" `Quick test_builder_diamond_shape;
          Alcotest.test_case "live-in" `Quick test_builder_live_in;
          Alcotest.test_case "store no dst" `Quick test_builder_store_has_no_dst;
          Alcotest.test_case "preplace recorded" `Quick test_builder_preplace_recorded;
          Alcotest.test_case "mem fence edge" `Quick test_builder_mem_fence_edge;
          Alcotest.test_case "rejects cycle" `Quick test_graph_rejects_cycle;
          Alcotest.test_case "rejects dup def" `Quick test_graph_rejects_duplicate_def;
          Alcotest.test_case "rejects self use" `Quick test_graph_rejects_self_use;
          Alcotest.test_case "topo valid" `Quick test_graph_topo_is_valid;
          Alcotest.test_case "neighbors unique" `Quick test_graph_neighbors_no_dups;
          to_alcotest prop_neighbors_unchanged;
          Alcotest.test_case "defining instr" `Quick test_graph_defining_instr;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "diamond unit" `Quick test_analysis_diamond_unit;
          Alcotest.test_case "latency weighted" `Quick test_analysis_latency_weighted;
          Alcotest.test_case "rejects zero latency" `Quick test_analysis_rejects_zero_latency;
          Alcotest.test_case "critical path" `Quick test_analysis_critical_path;
          Alcotest.test_case "critical instrs" `Quick test_analysis_critical_instrs;
          Alcotest.test_case "distance" `Quick test_analysis_distance;
          Alcotest.test_case "distance disconnected" `Quick test_analysis_distance_disconnected;
          to_alcotest prop_distance_rows_unchanged;
          Alcotest.test_case "multi source" `Quick test_analysis_multi_source;
          Alcotest.test_case "max depth" `Quick test_analysis_max_depth;
        ] );
      ( "region/dot",
        [
          Alcotest.test_case "density" `Quick test_region_density;
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "dot triangles" `Quick test_dot_preplaced_triangle;
        ] );
      ( "textual",
        [
          Alcotest.test_case "parse" `Quick test_textual_parse;
          Alcotest.test_case "roundtrip" `Quick test_textual_roundtrip;
          Alcotest.test_case "roundtrip generated" `Quick test_textual_roundtrip_generated;
          Alcotest.test_case "edge line" `Quick test_textual_edge_line;
          Alcotest.test_case "implicit live-in" `Quick test_textual_implicit_live_in;
          Alcotest.test_case "unknown opcode" `Quick test_textual_rejects_unknown_opcode;
          Alcotest.test_case "bad register" `Quick test_textual_rejects_bad_register;
          Alcotest.test_case "unknown liveout" `Quick test_textual_rejects_unknown_liveout;
          Alcotest.test_case "comments" `Quick test_textual_comments_ignored;
        ] );
    ]
