(* The paper's Figure 4: watching the preference maps converge.

   Runs the convergent scheduler on an fpppp-kernel fragment and prints
   the cluster-preference map after selected passes, in the style of
   Fig. 4(b)-(g): one row per instruction, one column per cluster,
   denser glyph = stronger preference.

     dune exec examples/fpppp_trace.exe *)

(* One row per instruction, one column per cluster; each glyph is the
   cluster's marginal relative to the row's largest, darker = stronger
   preference. *)
let pp_cluster_map fmt w =
  let module W = Cs_core.Weights in
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "instr";
  for c = 0 to W.nc w - 1 do
    Format.fprintf fmt " c%-2d" c
  done;
  Format.fprintf fmt "@,";
  for i = 0 to W.n w - 1 do
    Format.fprintf fmt "%5d" i;
    let top = ref 0.0 in
    for c = 0 to W.nc w - 1 do
      top := Float.max !top (W.cluster_weight w i c)
    done;
    for c = 0 to W.nc w - 1 do
      let v = if !top <= 0.0 then 0.0 else W.cluster_weight w i c /. !top in
      let g = glyphs.(Int.min 9 (int_of_float (v *. 9.0))) in
      Format.fprintf fmt "  %c " g
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"

let () =
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  (* A small fragment so the maps fit a terminal. *)
  let region =
    let b = Cs_ddg.Builder.create ~name:"fpppp-fragment" () in
    let load bank tag =
      let addr = Cs_ddg.Builder.op0 b ~tag:(tag ^ ".addr") Cs_ddg.Opcode.Const in
      Cs_ddg.Builder.load b ~preplace:bank ~tag addr
    in
    (* Two preplaced inputs on different clusters (the triangles of
       Fig. 4a), feeding interleaved fp chains. *)
    let x = load 1 "x" and y = load 3 "y" in
    let rec weave k a bch =
      if k = 0 then (a, bch)
      else
        let a' = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fmul a bch in
        let b' = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fadd bch a in
        weave (k - 1) a' b'
    in
    let a, bch = weave 5 x y in
    let out = Cs_ddg.Builder.op2 b Cs_ddg.Opcode.Fsub a bch in
    Cs_ddg.Builder.mark_live_out b out;
    Cs_ddg.Builder.finish b
  in
  let interesting = [ "NOISE"; "PATH"; "PLACE"; "PLACEPROP"; "COMM"; "EMPHCP" ] in
  let shown = Hashtbl.create 8 in
  let observe pass_name w =
    if List.mem pass_name interesting && not (Hashtbl.mem shown pass_name) then begin
      Hashtbl.add shown pass_name ();
      Format.printf "@.after %s:@.%a@." pass_name pp_cluster_map w
    end
  in
  let result =
    Cs_core.Driver.run ~observe ~machine region (Cs_core.Sequence.vliw_default ())
  in
  Format.printf "@.final assignment: %s@."
    (String.concat " "
       (Array.to_list (Array.map string_of_int result.Cs_core.Driver.assignment)));
  let analysis = result.Cs_core.Driver.context.Cs_core.Context.analysis in
  let sched =
    Cs_sched.List_scheduler.run ~machine ~assignment:result.Cs_core.Driver.assignment
      ~priority:(Cs_sched.Priority.of_slots result.Cs_core.Driver.preferred_slot)
      ~analysis region
  in
  Cs_sched.Validator.check_exn sched;
  Format.printf "schedule makespan: %d cycles@." (Cs_sched.Schedule.makespan sched)
