let opcode_of_string s =
  List.find_opt (fun op -> Opcode.to_string op = String.lowercase_ascii s) Opcode.all

let reg_of_string s =
  if String.length s >= 2 && s.[0] = 'r' then
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

(* Registers print renumbered by first appearance: live-ins in
   ascending order, then each instruction's destination. [of_string]
   allocates registers in that same order, so a parsed region prints
   back to the text it was read from, and any consistent renaming of a
   region's registers prints the same text. Live-outs are sorted by the
   printed numbering. *)
let to_string region =
  let graph = region.Region.graph in
  let ids = Hashtbl.create 32 in
  let id_of r =
    match Hashtbl.find_opt ids r with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.replace ids r id;
      id
  in
  let name r = Reg.to_string (id_of r) in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "region %s\n" region.Region.name;
  Reg.Set.iter
    (fun r ->
      let r' = name r in
      match Reg.Map.find_opt r region.Region.live_in_homes with
      | Some home -> Printf.bprintf buf "livein %s @%d\n" r' home
      | None -> Printf.bprintf buf "livein %s\n" r')
    (Graph.live_in_regs graph);
  Array.iter
    (fun ins ->
      let dst = match ins.Instr.dst with Some r -> name r | None -> "-" in
      (* SSA: sources are live-ins or earlier destinations, so they are
         already named by the time they are read here. *)
      let srcs = List.map name ins.Instr.srcs in
      Printf.bprintf buf "%s %s" (Opcode.to_string ins.Instr.op) dst;
      if srcs <> [] then Printf.bprintf buf " <- %s" (String.concat " " srcs);
      (match ins.Instr.preplace with Some c -> Printf.bprintf buf " @%d" c | None -> ());
      if ins.Instr.tag <> "" then Printf.bprintf buf " # %s" ins.Instr.tag;
      Buffer.add_char buf '\n')
    (Graph.instrs graph);
  (* Ordering edges that are not explained by register dataflow. *)
  let dataflow_edge src dst =
    let consumer = Graph.instr graph dst in
    List.exists
      (fun r -> Graph.defining_instr graph r = Some src)
      consumer.Instr.srcs
  in
  for i = 0 to Graph.n graph - 1 do
    List.iter
      (fun j -> if not (dataflow_edge i j) then Printf.bprintf buf "edge %d %d\n" i j)
      (Graph.succs graph i)
  done;
  Reg.Set.elements region.Region.live_outs
  |> List.map id_of
  |> List.sort compare
  |> List.iter (fun id -> Printf.bprintf buf "liveout %s\n" (Reg.to_string id));
  Buffer.contents buf

let of_string text =
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines = String.split_on_char '\n' text in
  (* Strip comments that occupy the end of the line after '#' only when
     preceded by whitespace, keeping instruction tags intact is not
     needed on input: '#' starts the tag. *)
  let name = ref "region" in
  let b = ref None in
  let get_builder () =
    match !b with
    | Some builder -> builder
    | None ->
      let builder = Builder.create ~name:!name () in
      b := Some builder;
      builder
  in
  (* Registers in the file are renamed to builder registers. *)
  let reg_map = Hashtbl.create 32 in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let resolve_use file_reg =
    match Hashtbl.find_opt reg_map file_reg with
    | Some r -> r
    | None ->
      (* Read before definition: implicit (un-homed) live-in. *)
      let r = Builder.live_in (get_builder ()) in
      Hashtbl.replace reg_map file_reg r;
      r
  in
  let parse_home tok =
    if String.length tok > 1 && tok.[0] = '@' then
      int_of_string_opt (String.sub tok 1 (String.length tok - 1))
    else None
  in
  let pending_live_outs = ref [] in
  List.iteri
    (fun lineno line ->
      if !problem = None then begin
        let line =
          match String.index_opt line '#' with
          | Some k when k = 0 -> ""
          | _ -> line
        in
        let tag =
          match String.index_opt line '#' with
          | Some k -> String.trim (String.sub line (k + 1) (String.length line - k - 1))
          | None -> ""
        in
        let code =
          match String.index_opt line '#' with
          | Some k -> String.sub line 0 k
          | None -> line
        in
        let tokens =
          String.split_on_char ' ' (String.trim code) |> List.filter (fun t -> t <> "")
        in
        match tokens with
        | [] -> ()
        | [ "region"; n ] -> name := n
        | "livein" :: r :: rest ->
          (match reg_of_string r with
          | None -> fail "line %d: bad register %S" (lineno + 1) r
          | Some file_reg ->
            let home = match rest with [ h ] -> parse_home h | _ -> None in
            let reg = Builder.live_in ?home (get_builder ()) in
            Hashtbl.replace reg_map file_reg reg)
        | [ "liveout"; r ] ->
          (match reg_of_string r with
          | None -> fail "line %d: bad register %S" (lineno + 1) r
          | Some file_reg -> pending_live_outs := (lineno + 1, file_reg) :: !pending_live_outs)
        | [ "edge"; a; b' ] ->
          (match (int_of_string_opt a, int_of_string_opt b') with
          | Some src, Some dst -> Builder.mem_fence_edge (get_builder ()) src dst
          | _ -> fail "line %d: bad edge" (lineno + 1))
        | opcode :: dst :: rest ->
          (match opcode_of_string opcode with
          | None -> fail "line %d: unknown opcode %S" (lineno + 1) opcode
          | Some op ->
            let srcs_toks, home =
              match rest with
              | "<-" :: more ->
                let home = List.find_map parse_home more in
                (List.filter (fun t -> parse_home t = None) more, home)
              | more -> ([], List.find_map parse_home more)
            in
            let srcs = List.filter_map reg_of_string srcs_toks in
            if List.length srcs <> List.length srcs_toks then
              fail "line %d: bad source register" (lineno + 1)
            else begin
              let builder = get_builder () in
              let wants_dst = dst <> "-" in
              if wants_dst && reg_of_string dst = None then
                fail "line %d: bad destination %S" (lineno + 1) dst
              else begin
                let result =
                  Builder.emit builder ?preplace:home ~tag op ~dst:wants_dst
                    (List.map resolve_use srcs)
                in
                match (wants_dst, result, reg_of_string dst) with
                | true, Some r, Some file_reg -> Hashtbl.replace reg_map file_reg r
                | true, None, _ -> fail "line %d: opcode produces no value" (lineno + 1)
                | _ -> ()
              end
            end)
        | _ -> fail "line %d: cannot parse" (lineno + 1)
      end)
    lines;
  match !problem with
  | Some msg -> Error msg
  | None ->
    let builder = get_builder () in
    let live_outs =
      List.filter_map
        (fun (lineno, file_reg) ->
          match Hashtbl.find_opt reg_map file_reg with
          | Some r -> Builder.mark_live_out builder r; Some (lineno, r)
          | None -> fail "line %d: liveout of unknown register" lineno; None)
        (List.rev !pending_live_outs)
    in
    (match !problem with
    | Some msg -> Error msg
    | None -> (
      match Builder.finish builder with
      | exception Invalid_argument msg -> error "%s" msg
      | region -> (
        (* A region only knows the live-ins its instructions read, so a
           live-out that nothing reads or defines could not be written
           back. *)
        let g = region.Region.graph in
        match
          List.find_opt
            (fun (_, r) ->
              Graph.defining_instr g r = None && not (Reg.Set.mem r (Graph.live_in_regs g)))
            live_outs
        with
        | Some (lineno, _) -> error "line %d: liveout of a register no instruction reads or defines" lineno
        | None -> Ok region)))

let load_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error msg -> Error msg
