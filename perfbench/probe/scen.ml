(* One scheduling problem as a client names it (bench, machine, seed)
   and as the scheduler sees it (the generated region), plus the
   in-process reference answer every benchmark output is checked
   against. *)

type t = {
  bench : string;
  machine_name : string;
  machine : Cs_machine.Machine.t;
  seed : int option;
  region : Cs_ddg.Region.t;
}

let machine_of_name name =
  match Cs_svc.Proto.machine_of_name name with Ok m -> m | Error e -> failwith e

let make ?seed machine_name bench =
  let machine = machine_of_name machine_name in
  let entry =
    match Cs_workloads.Suite.find bench with
    | Some e -> e
    | None -> failwith ("unknown benchmark " ^ bench)
  in
  { bench; machine_name; machine; seed;
    region =
      entry.Cs_workloads.Suite.generate ~clusters:(Cs_machine.Machine.n_clusters machine) () }

(* The Table 1 suite scheduled on a machine: raw16 runs the Raw suite,
   vliw4 the VLIW suite. *)
let suite machine_name =
  let entries =
    if String.starts_with ~prefix:"raw" machine_name then Cs_workloads.Suite.raw_suite
    else Cs_workloads.Suite.vliw_suite
  in
  List.map (fun e -> make machine_name e.Cs_workloads.Suite.name) entries

let request ~id s = Cs_svc.Proto.request ~id ~machine:s.machine_name ?seed:s.seed s.bench

let label s =
  Printf.sprintf "%s/%s%s" s.machine_name s.bench
    (match s.seed with Some n -> Printf.sprintf "#%d" n | None -> "")

type answer = {
  cycles : int;
  transfers : int;
  rung : string;
  timed_out : bool;
  quarantined : int;
}

let answer_of_reply (r : Cs_svc.Proto.reply) =
  match r.Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled { cycles; transfers; rung; timed_out; quarantined } ->
    Some { cycles; transfers; rung; timed_out; quarantined }
  | Cs_svc.Proto.Refused _ -> None

(* What a shard computes for this request: the resilient pipeline with
   the machine's default convergent sequence. *)
let reference s =
  match Cs_sim.Pipeline.schedule_resilient ?seed:s.seed ~machine:s.machine s.region with
  | Ok (sched, (o : Cs_resil.Outcome.t)) ->
    Ok
      { cycles = Cs_sched.Schedule.makespan sched;
        transfers = Cs_sched.Schedule.n_comms sched;
        rung = Cs_resil.Outcome.rung_to_string o.Cs_resil.Outcome.rung;
        timed_out = o.Cs_resil.Outcome.timed_out;
        quarantined = List.length o.Cs_resil.Outcome.quarantined }
  | Error e -> Error (Cs_resil.Error.to_string e)

(* References for many scenarios, split over two domains: they run after
   the fleet has stopped, and scheduling is a pure function of the
   scenario, so the split cannot change answers. *)
let references scens =
  let domains = 2 in
  let a = Array.of_list scens in
  let n = Array.length a in
  let out = Array.make n (Error "not computed") in
  let work k () =
    let i = ref k in
    while !i < n do
      out.(!i) <- reference a.(!i);
      i := !i + domains
    done
  in
  let spawned = List.init (max 0 (domains - 1)) (fun k -> Domain.spawn (work (k + 1))) in
  work 0 ();
  List.iter Domain.join spawned;
  out

(* --- golden makespans ------------------------------------------------ *)

(* [machine bench makespan] per line; '#' starts a comment. *)
let load_golden path =
  let ic = open_in path in
  let tbl = Hashtbl.create 32 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ m; b; c ] -> Hashtbl.replace tbl (m, b) (int_of_string c)
            | _ -> failwith ("malformed golden line: " ^ line)
        done
      with End_of_file -> ());
  tbl
