(* Per-layer timings, taken from outside the program: each layer's
   public entry point is called directly and timed here. Nothing inside
   lib/ or bin/ is instrumented. *)

let now = Cs_obs.Clock.now
let ms_since t = (now () -. t) *. 1000.0

(* --- the in-process pipeline, decomposed ---------------------------- *)

(* Pass names of both Table 1 sequences, in first-use order. *)
let pass_names =
  List.fold_left
    (fun acc (p : Cs_core.Pass.t) ->
      if List.mem p.Cs_core.Pass.name acc then acc else acc @ [ p.name ])
    []
    (Cs_core.Sequence.raw_default () @ Cs_core.Sequence.vliw_default ())

type decomposition = {
  pass_ms : (string, float) Hashtbl.t;  (** self time per pass name, summed *)
  mutable extract_ms : float;
  mutable lsched_ms : float;
  mutable validate_ms : float;
  mutable resilient_ms : float;  (** the untraced call, same scenarios *)
  mutable decomposed_ms : float;  (** the traced calls, end to end *)
  mutable calls : int;
  mutable mismatches : int;  (** decomposed schedule differs from the reference *)
  mutable quarantined : int;
  mutable timed_out : int;
  mutable requested : int;  (** reference answered by the requested rung *)
}

let decomposition () =
  { pass_ms = Hashtbl.create 16; extract_ms = 0.0; lsched_ms = 0.0; validate_ms = 0.0;
    resilient_ms = 0.0; decomposed_ms = 0.0; calls = 0; mismatches = 0; quarantined = 0;
    timed_out = 0; requested = 0 }

let add_pass d name ms =
  Hashtbl.replace d.pass_ms name
    (ms +. Option.value ~default:0.0 (Hashtbl.find_opt d.pass_ms name))

(* The convergent rung of [Pipeline.schedule_resilient], call by call:
   [Driver.run], then [List_scheduler.run] on its assignment, then
   [Validator.check]. [Driver.run]'s [~observe] hook timestamps every
   pass: a pass's self time runs from the previous timestamp, so the
   first pass (INITTIME) also carries [Context.make], and the time from
   the last timestamp to [Driver.run]'s return is its final
   [assignment_of_weights] (extraction). Returns the makespan of a valid
   schedule. *)
let decomposed d (s : Scen.t) =
  let t_start = now () in
  let last = ref t_start in
  let observe name _ =
    let t = now () in
    add_pass d name ((t -. !last) *. 1000.0);
    last := t
  in
  let r =
    Cs_core.Driver.run ?seed:s.seed ~observe ~machine:s.machine s.region
      (Cs_sim.Pipeline.default_passes ~machine:s.machine)
  in
  d.extract_ms <- d.extract_ms +. ms_since !last;
  let analysis = r.Cs_core.Driver.context.Cs_core.Context.analysis in
  let priority =
    if Cs_machine.Machine.is_mesh s.machine then Cs_sched.Priority.alap analysis
    else Cs_sched.Priority.of_slots r.preferred_slot
  in
  let t = now () in
  let sched =
    Cs_sched.List_scheduler.run ~machine:s.machine ~assignment:r.assignment ~priority
      ~analysis s.region
  in
  d.lsched_ms <- d.lsched_ms +. ms_since t;
  let t = now () in
  let valid = Cs_sched.Validator.check sched in
  d.validate_ms <- d.validate_ms +. ms_since t;
  d.decomposed_ms <- d.decomposed_ms +. ms_since t_start;
  if valid = Ok () then Some (Cs_sched.Schedule.makespan sched) else None

let resilient d (s : Scen.t) =
  let t = now () in
  let a = Scen.reference s in
  d.resilient_ms <- d.resilient_ms +. ms_since t;
  a

(* One scenario both ways; the order alternates so neither side always
   runs on caches the other warmed. *)
let step d (s : Scen.t) =
  let reference, mine =
    if d.calls land 1 = 0 then
      let a = resilient d s in
      (a, decomposed d s)
    else
      let m = decomposed d s in
      (resilient d s, m)
  in
  d.calls <- d.calls + 1;
  match reference with
  | Ok a ->
    if a.Scen.rung = "requested" then d.requested <- d.requested + 1;
    d.quarantined <- d.quarantined + a.quarantined;
    if a.timed_out then d.timed_out <- d.timed_out + 1;
    if mine <> Some a.cycles then d.mismatches <- d.mismatches + 1
  | Error _ -> d.mismatches <- d.mismatches + 1

(* Cycle through [scens] until [seconds] have passed (at least one
   scenario). *)
let decompose ~seconds scens =
  let d = decomposition () in
  let a = Array.of_list scens in
  let stop = now () +. seconds in
  let i = ref 0 in
  while !i = 0 || now () < stop do
    step d a.(!i mod Array.length a);
    incr i
  done;
  d

let decomposition_metrics d =
  let per_call x = x /. float_of_int (max 1 d.calls) in
  let passes_total = Hashtbl.fold (fun _ v acc -> acc +. v) d.pass_ms 0.0 in
  let explained = passes_total +. d.extract_ms +. d.lsched_ms +. d.validate_ms in
  let m = Benchlib.metric in
  List.map
    (fun name ->
      m ("pass." ^ name ^ ".ms") "ms"
        (per_call (Option.value ~default:0.0 (Hashtbl.find_opt d.pass_ms name))))
    pass_names
  @ [ m "extract.ms" "ms" (per_call d.extract_ms);
      m "lsched.ms" "ms" (per_call d.lsched_ms);
      m "validate.ms" "ms" (per_call d.validate_ms);
      m "explained_frac" "ratio" (explained /. Float.max 1e-9 d.resilient_ms);
      m "trace.overhead_frac" "ratio"
        ((d.decomposed_ms /. Float.max 1e-9 d.resilient_ms) -. 1.0) ]

(* --- service-path layers, on the workload's own lines ---------------- *)

(* Mean seconds per call of [f i], calling it for i = 0, 1, ... until
   both [min_calls] calls and 50 ms are done. *)
let mean_s ~min_calls f =
  let t0 = now () in
  let calls = ref 0 in
  while !calls < min_calls || now () -. t0 < 0.05 do
    f !calls;
    incr calls
  done;
  (now () -. t0) /. float_of_int !calls

(* The gateway's scenario key, in its two steps: regenerate the region
   from the request's names, then hash the canonical form. *)
let key_region (r : Cs_svc.Proto.request) =
  let machine = Scen.machine_of_name r.Cs_svc.Proto.machine in
  match Cs_workloads.Suite.find r.bench with
  | None -> failwith ("unknown benchmark " ^ r.bench)
  | Some e ->
    ( machine,
      e.Cs_workloads.Suite.generate ~scale:r.scale
        ~clusters:(Cs_machine.Machine.n_clusters machine) () )

let key_hash (r : Cs_svc.Proto.request) (machine, region) =
  let spec =
    Printf.sprintf "scheduler %s passes %s seed %s" r.Cs_svc.Proto.scheduler
      (Option.value ~default:"default" r.passes)
      (match r.seed with Some s -> string_of_int s | None -> "-")
  in
  Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~spec ~machine region)

let service_metrics ~scratch ~(requests : Cs_svc.Proto.request array)
    ~(replies : Cs_svc.Proto.reply array) =
  let nr = Array.length requests and np = Array.length replies in
  let req i = requests.(i mod nr) in
  let lines = Array.map Cs_svc.Proto.request_to_line requests in
  let decode_s =
    mean_s ~min_calls:2000 (fun i -> ignore (Cs_svc.Proto.incoming_of_line lines.(i mod nr)))
  in
  let encode_s =
    mean_s ~min_calls:2000 (fun i -> ignore (Cs_svc.Proto.reply_to_line replies.(i mod np)))
  in
  let regions = Array.map key_region requests in
  let gen_s = mean_s ~min_calls:nr (fun i -> ignore (key_region (req i))) in
  let hash_s = mean_s ~min_calls:nr (fun i -> ignore (key_hash (req i) regions.(i mod nr))) in
  let keys = Array.mapi (fun i r -> key_hash r regions.(i)) requests in
  let cache = Cs_gateway.Cache.create ~capacity:256 in
  Array.iteri (fun i k -> Cs_gateway.Cache.put cache k replies.(i mod np)) keys;
  let find_s =
    mean_s ~min_calls:20_000 (fun i -> ignore (Cs_gateway.Cache.find cache keys.(i mod nr)))
  in
  (* The journal records what the gateway writes for a forwarded job:
     admit with the request, done with the reply, each fsynced. *)
  let dir = Filename.concat scratch "journal-layer" in
  let j = Cs_gateway.Journal.open_dir ~dir ~recover:false () in
  let admit_ms = ref [] and done_ms = ref [] in
  for i = 0 to 31 do
    let key = Printf.sprintf "%s#r:layer%d" keys.(i mod nr) i in
    let t = now () in
    Cs_gateway.Journal.admit j ~key (req i);
    admit_ms := ms_since t :: !admit_ms;
    let t = now () in
    Cs_gateway.Journal.mark_done j ~key replies.(i mod np);
    done_ms := ms_since t :: !done_ms
  done;
  Cs_gateway.Journal.close j;
  let m = Benchlib.metric in
  [ m "proto.decode_us" "us" (decode_s *. 1e6);
    m "proto.encode_us" "us" (encode_s *. 1e6);
    m "key.gen_ms" "ms" (gen_s *. 1e3);
    m "key.hash_ms" "ms" (hash_s *. 1e3);
    m "cache.find_us" "us" (find_s *. 1e6);
    m "journal.admit_ms" "ms" (Benchlib.median !admit_ms);
    m "journal.done_ms" "ms" (Benchlib.median !done_ms) ]
