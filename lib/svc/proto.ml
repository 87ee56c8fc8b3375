type request = {
  id : string;
  bench : string;
  machine : string;
  scheduler : string;
  scale : int;
  deadline_ms : float option;
  passes : string option;
  seed : int option;
  idem_key : string option;
  trace_id : string option;
  parent_span : string option;
  tenant : string option;
  job_class : string option;  (* wire field "class": interactive | batch *)
}

let request ?(id = "") ?(machine = "raw16") ?(scheduler = "convergent") ?(scale = 1)
    ?deadline_ms ?passes ?seed ?idem_key ?trace_id ?parent_span ?tenant
    ?job_class bench =
  { id; bench; machine; scheduler; scale; deadline_ms; passes; seed; idem_key;
    trace_id; parent_span; tenant; job_class }

let with_trace ~(ctx : Cs_obs.Tracectx.t) r =
  { r with trace_id = Some ctx.trace_id; parent_span = Some ctx.span_id }

let trace_of_request r =
  match r.trace_id with
  | None -> None
  | Some trace_id -> Some (Cs_obs.Tracectx.make ~trace_id ?parent_span:r.parent_span ())

type verdict =
  | Scheduled of {
      cycles : int;
      transfers : int;
      rung : string;
      timed_out : bool;
      quarantined : int;
    }
  | Refused of { kind : string; message : string }

type reply = {
  reply_id : string;
  elapsed_ms : float;
  verdict : verdict;
  queue_depth : int option;
  cached : bool;
}

let reply ?queue_depth ?(cached = false) ~id ~elapsed_ms verdict =
  { reply_id = id; elapsed_ms; verdict; queue_depth; cached }

let refused ?(elapsed_ms = 0.0) ~id error =
  { reply_id = id; elapsed_ms;
    verdict =
      Refused
        { kind = Cs_resil.Error.kind error; message = Cs_resil.Error.message error };
    queue_depth = None; cached = false }

(* --- machine names (the grammar csched's -m flag parses) ----------- *)

let machine_of_name s =
  match String.lowercase_ascii s with
  | "vliw" | "vliw4" -> Ok (Cs_machine.Vliw.create ~n_clusters:4 ())
  | "vliw1" -> Ok (Cs_machine.Vliw.single_cluster ())
  | other ->
    let parse_int prefix =
      let plen = String.length prefix in
      if String.length other > plen && String.sub other 0 plen = prefix then
        int_of_string_opt (String.sub other plen (String.length other - plen))
      else None
    in
    (match (parse_int "raw", parse_int "vliw") with
    | Some n, _ when n > 0 -> Ok (Cs_machine.Raw.with_tiles n)
    | _, Some n when n > 0 -> Ok (Cs_machine.Vliw.create ~n_clusters:n ())
    | _ -> Error (Printf.sprintf "unknown machine %S (try raw16, raw4, vliw4)" s))

(* --- JSON line codec ----------------------------------------------- *)

let opt field v = match v with None -> [] | Some x -> [ (field, x) ]

let request_to_json r =
  let open Cs_obs.Json in
  Obj
    ([ ("id", Str r.id);
       ("bench", Str r.bench);
       ("machine", Str r.machine);
       ("scheduler", Str r.scheduler);
       ("scale", Num (float_of_int r.scale)) ]
    @ opt "deadline_ms" (Option.map (fun d -> Num d) r.deadline_ms)
    @ opt "passes" (Option.map (fun p -> Str p) r.passes)
    @ opt "seed" (Option.map (fun s -> Num (float_of_int s)) r.seed)
    @ opt "idem_key" (Option.map (fun k -> Str k) r.idem_key)
    @ opt "trace_id" (Option.map (fun t -> Str t) r.trace_id)
    @ opt "parent_span" (Option.map (fun p -> Str p) r.parent_span)
    @ opt "tenant" (Option.map (fun t -> Str t) r.tenant)
    @ opt "class" (Option.map (fun c -> Str c) r.job_class))

let str_member ?default key json =
  match (Cs_obs.Json.member key json, default) with
  | Some (Cs_obs.Json.Str s), _ -> Ok s
  | None, Some d -> Ok d
  | _ -> Error (Printf.sprintf "missing string field %S" key)

let num_member key json =
  match Cs_obs.Json.member key json with
  | Some (Cs_obs.Json.Num n) -> Some n
  | _ -> None

let ( let* ) = Result.bind

let request_of_json json =
  let* bench = str_member "bench" json in
  let* id = str_member ~default:"" "id" json in
  let* machine = str_member ~default:"raw16" "machine" json in
  let* scheduler = str_member ~default:"convergent" "scheduler" json in
  let scale =
    match num_member "scale" json with Some n -> max 1 (int_of_float n) | None -> 1
  in
  let deadline_ms = num_member "deadline_ms" json in
  let passes =
    match Cs_obs.Json.member "passes" json with
    | Some (Cs_obs.Json.Str p) -> Some p
    | _ -> None
  in
  let seed = Option.map int_of_float (num_member "seed" json) in
  let opt_str k =
    match Cs_obs.Json.member k json with
    | Some (Cs_obs.Json.Str s) -> Some s
    | _ -> None
  in
  Ok
    { id; bench; machine; scheduler; scale; deadline_ms; passes; seed;
      idem_key = opt_str "idem_key";
      trace_id = opt_str "trace_id"; parent_span = opt_str "parent_span";
      tenant = opt_str "tenant"; job_class = opt_str "class" }

let reply_to_json r =
  let open Cs_obs.Json in
  let verdict_fields =
    match r.verdict with
    | Scheduled s ->
      [ ("status", Str "ok");
        ("cycles", Num (float_of_int s.cycles));
        ("transfers", Num (float_of_int s.transfers));
        ("rung", Str s.rung);
        ("timed_out", Bool s.timed_out);
        ("quarantined", Num (float_of_int s.quarantined)) ]
    | Refused e -> [ ("status", Str "refused"); ("kind", Str e.kind); ("message", Str e.message) ]
  in
  Obj
    ([ ("id", Str r.reply_id); ("elapsed_ms", Num r.elapsed_ms) ]
    @ opt "queue_depth"
        (Option.map (fun d -> Num (float_of_int d)) r.queue_depth)
    @ (if r.cached then [ ("cached", Bool true) ] else [])
    @ verdict_fields)

let reply_of_json json =
  let* reply_id = str_member ~default:"" "id" json in
  let elapsed_ms = Option.value ~default:0.0 (num_member "elapsed_ms" json) in
  let* status = str_member "status" json in
  let* verdict =
    match status with
    | "ok" ->
      let get k =
        match num_member k json with Some n -> int_of_float n | None -> 0
      in
      let timed_out =
        match Cs_obs.Json.member "timed_out" json with
        | Some (Cs_obs.Json.Bool b) -> b
        | _ -> false
      in
      let* rung = str_member ~default:"requested" "rung" json in
      Ok
        (Scheduled
           { cycles = get "cycles"; transfers = get "transfers"; rung; timed_out;
             quarantined = get "quarantined" })
    | "refused" ->
      let* kind = str_member ~default:"invalid-input" "kind" json in
      let* message = str_member ~default:"" "message" json in
      Ok (Refused { kind; message })
    | other -> Error (Printf.sprintf "unknown reply status %S" other)
  in
  let queue_depth = Option.map int_of_float (num_member "queue_depth" json) in
  let cached =
    match Cs_obs.Json.member "cached" json with
    | Some (Cs_obs.Json.Bool b) -> b
    | _ -> false
  in
  Ok { reply_id; elapsed_ms; verdict; queue_depth; cached }

(* --- control verbs (ping / stats / metrics) ------------------------ *)

type metrics_format = Metrics_json | Metrics_prometheus

type control = Ping | Stats_query | Metrics_query of metrics_format

(* Push heartbeat: a shard announces itself and its load vector to the
   gateway on a persistent connection. Fire-and-forget — no reply line,
   so an idle fleet costs one small line per shard per period. *)
type heartbeat = {
  hb_shard : string;  (* the address the gateway knows the shard by *)
  hb_depth : int;
  hb_busy : int;
  hb_workers : int;
  hb_completed : int;
}

type incoming =
  | Job_request of request
  | Control of { op : control; id : string }
  | Heartbeat of heartbeat

let control_line ~op ?(id = "") () =
  Cs_obs.Json.to_string
    (Cs_obs.Json.Obj [ ("op", Cs_obs.Json.Str op); ("id", Cs_obs.Json.Str id) ])

let stats_line = control_line ~op:"stats"

let heartbeat_line hb =
  Cs_obs.Json.to_string
    (Cs_obs.Json.Obj
       [ ("op", Cs_obs.Json.Str "heartbeat");
         ("shard", Cs_obs.Json.Str hb.hb_shard);
         ("queue_depth", Cs_obs.Json.Num (float_of_int hb.hb_depth));
         ("busy", Cs_obs.Json.Num (float_of_int hb.hb_busy));
         ("workers", Cs_obs.Json.Num (float_of_int hb.hb_workers));
         ("completed", Cs_obs.Json.Num (float_of_int hb.hb_completed)) ])

let metrics_line ?(format = Metrics_json) ?(id = "") () =
  Cs_obs.Json.to_string
    (Cs_obs.Json.Obj
       [ ("op", Cs_obs.Json.Str "metrics");
         ( "format",
           Cs_obs.Json.Str
             (match format with
             | Metrics_json -> "json"
             | Metrics_prometheus -> "prometheus") );
         ("id", Cs_obs.Json.Str id) ])

let incoming_of_json json =
  match Cs_obs.Json.member "op" json with
  | Some (Cs_obs.Json.Str op) ->
    let* id = str_member ~default:"" "id" json in
    (match op with
    | "ping" -> Ok (Control { op = Ping; id })
    | "stats" -> Ok (Control { op = Stats_query; id })
    | "metrics" ->
      let* format =
        match Cs_obs.Json.member "format" json with
        | Some (Cs_obs.Json.Str "prometheus") -> Ok Metrics_prometheus
        | Some (Cs_obs.Json.Str "json") | None -> Ok Metrics_json
        | _ -> Error "metrics format must be \"json\" or \"prometheus\""
      in
      Ok (Control { op = Metrics_query format; id })
    | "heartbeat" ->
      let* hb_shard = str_member "shard" json in
      let get k =
        match num_member k json with Some n -> int_of_float n | None -> 0
      in
      Ok
        (Heartbeat
           { hb_shard; hb_depth = get "queue_depth"; hb_busy = get "busy";
             hb_workers = get "workers"; hb_completed = get "completed" })
    | other -> Error (Printf.sprintf "unknown op %S" other))
  | Some _ -> Error "op must be a string"
  | None -> Result.map (fun r -> Job_request r) (request_of_json json)

(* A metrics answer line: either the mergeable JSON snapshot or the
   rendered Prometheus text (as one JSON string field), so both ride
   the same one-line-per-reply framing as everything else. *)
type metrics_payload =
  | Snapshot of Cs_obs.Metrics.snapshot
  | Prom_text of string

let metrics_reply_to_line ~id payload =
  let open Cs_obs.Json in
  let fields =
    match payload with
    | Snapshot snap ->
      [ ("format", Str "json");
        ("snapshot", Cs_obs.Metrics.snapshot_to_json snap) ]
    | Prom_text text -> [ ("format", Str "prometheus"); ("text", Str text) ]
  in
  to_string (Obj ([ ("id", Str id); ("status", Str "metrics") ] @ fields))

let metrics_reply_of_json json =
  let* status = str_member "status" json in
  if status <> "metrics" then
    Error (Printf.sprintf "expected a metrics reply, got status %S" status)
  else
    let* id = str_member ~default:"" "id" json in
    let* format = str_member ~default:"json" "format" json in
    match format with
    | "json" ->
      (match Cs_obs.Json.member "snapshot" json with
      | Some snap_json ->
        let* snap = Cs_obs.Metrics.snapshot_of_json snap_json in
        Ok (id, Snapshot snap)
      | None -> Error "metrics reply missing snapshot")
    | "prometheus" ->
      let* text = str_member ~default:"" "text" json in
      Ok (id, Prom_text text)
    | other -> Error (Printf.sprintf "unknown metrics format %S" other)

type server_stats = {
  queue_depth : int;
  workers : int;
  busy : int;
  admitted : int;
  completed : int;
  shed : int;
  refusals : int;
  extra : (string * float) list;
      (** layer-specific series, e.g. the gateway's cache counters;
          round-trip verbatim so consumers can evolve independently *)
}

let stats_known_keys =
  [ "queue_depth"; "workers"; "busy"; "admitted"; "completed"; "shed"; "refusals" ]

let pong_to_json ~id s =
  let open Cs_obs.Json in
  Obj
    ([ ("id", Str id); ("status", Str "pong");
       ("queue_depth", Num (float_of_int s.queue_depth));
       ("workers", Num (float_of_int s.workers));
       ("busy", Num (float_of_int s.busy));
       ("admitted", Num (float_of_int s.admitted));
       ("completed", Num (float_of_int s.completed));
       ("shed", Num (float_of_int s.shed));
       ("refusals", Num (float_of_int s.refusals)) ]
    @ List.map (fun (k, v) -> (k, Num v)) s.extra)

let pong_of_json json =
  let* status = str_member "status" json in
  if status <> "pong" then Error (Printf.sprintf "expected a pong, got status %S" status)
  else
    let* id = str_member ~default:"" "id" json in
    let get k = match num_member k json with Some n -> int_of_float n | None -> 0 in
    let extra =
      match json with
      | Cs_obs.Json.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Cs_obs.Json.Num n
              when (not (List.mem k stats_known_keys)) && k <> "id" ->
              Some (k, n)
            | _ -> None)
          fields
      | _ -> []
    in
    Ok
      ( id,
        { queue_depth = get "queue_depth"; workers = get "workers"; busy = get "busy";
          admitted = get "admitted"; completed = get "completed"; shed = get "shed";
          refusals = get "refusals"; extra } )

let line_of to_json v = Cs_obs.Json.to_string (to_json v)

let of_line of_json line =
  match Cs_obs.Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok json -> of_json json

let request_to_line = line_of request_to_json
let request_of_line = of_line request_of_json
let reply_to_line = line_of reply_to_json
let reply_of_line = of_line reply_of_json
let incoming_of_line = of_line incoming_of_json
let pong_to_line ~id s = Cs_obs.Json.to_string (pong_to_json ~id s)
let pong_of_line = of_line pong_of_json
let metrics_reply_of_line = of_line metrics_reply_of_json
