type health =
  | Healthy
  | Suspect of int
  | Dead of { down_at : float; retry_at : float; attempt : int }

type breaker = Closed | Open | Half_open

let breaker_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type transition = Evicted | Readmitted | Breaker of breaker

(* Breaker constants: window size, minimum outcomes before the rate is
   judged, trip rate, slow-call bound, open duration. *)
let window = 32
let min_calls = 8
let failure_rate = 0.5
let slow_ms = 30_000.0
let cooldown_s = 5.0

(* Length of the admission ramp after a re-admission. *)
let warmup_s = 5.0

(* Re-admission probe schedule. Without the 10 s clamp the doubling
   parks a long-dead shard behind a probe interval of a minute or more,
   so a shard that comes back stays invisible that long. *)
let backoff_delays =
  Cs_svc.Retry.delays
    { Cs_svc.Retry.default with
      base_delay_s = 0.5; multiplier = 2.0; jitter = 0.25; max_attempts = 8 }
  |> List.map (Float.min 10.0)
  |> Array.of_list

(* attempt 1 = first burial; deeper burials stay on the last step *)
let backoff_delay attempt =
  backoff_delays.(min (attempt - 1) (Array.length backoff_delays - 1))

type entry = {
  mutable health : health;
  mutable probing : bool;  (* a probation probe is outstanding *)
  outcomes : bool array;  (* breaker window, a ring buffer: true = failure *)
  mutable widx : int;
  mutable count : int;  (* outcomes in the window, saturates at [window] *)
  mutable breaker : breaker;
  mutable open_until : float;  (* end of the cooldown while [Open] *)
  mutable warm_due : bool;  (* re-admitted, warm-up replay not yet taken *)
  mutable warm_since : float option;  (* ramp start while warming *)
}

type t = {
  fail_threshold : int;
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  on_transition : shard:string -> transition -> unit;
}

let fresh () =
  { health = Healthy; probing = false; outcomes = Array.make window false;
    widx = 0; count = 0; breaker = Closed; open_until = 0.0; warm_due = false;
    warm_since = None }

let create ?(fail_threshold = 3) ?(on_transition = fun ~shard:_ _ -> ()) names =
  if fail_threshold <= 0 then
    invalid_arg "Shard_state.create: fail_threshold must be positive";
  let table = Hashtbl.create 8 in
  List.iter
    (fun n -> if not (Hashtbl.mem table n) then Hashtbl.replace table n (fresh ()))
    names;
  { fail_threshold; table; mutex = Mutex.create (); on_transition }

(* Look up (or add) the shard's entry and run [f] on it under the lock. *)
let with_entry t name f =
  Mutex.protect t.mutex (fun () ->
      let e =
        match Hashtbl.find_opt t.table name with
        | Some e -> e
        | None ->
          let e = fresh () in
          Hashtbl.replace t.table name e;
          e
      in
      f e)

(* --- eviction ------------------------------------------------------ *)

let bury e ~now ~down_at ~attempt =
  e.health <- Dead { down_at; retry_at = now +. backoff_delay attempt; attempt }

let note_locked t name e ~now ~ok =
  e.probing <- false;
  if ok then begin
    (match e.health with
    | Dead _ ->
      e.warm_due <- true;
      t.on_transition ~shard:name Readmitted
    | Healthy | Suspect _ -> ());
    e.health <- Healthy
  end
  else
    match e.health with
    | Healthy | Suspect _ ->
      let failures = (match e.health with Suspect n -> n | _ -> 0) + 1 in
      if failures >= t.fail_threshold then begin
        t.on_transition ~shard:name Evicted;
        bury e ~now ~down_at:now ~attempt:1
      end
      else e.health <- Suspect failures
    | Dead { down_at; attempt; _ } ->
      (* failed probation probe: next backoff step *)
      bury e ~now ~down_at ~attempt:(attempt + 1)

let note t name ~now ~ok = with_entry t name (note_locked t name ~now ~ok)

let usable t name =
  with_entry t name (fun e ->
      match e.health with Healthy | Suspect _ -> true | Dead _ -> false)

let alive t names = List.filter (usable t) names

let probe_due t name ~now =
  with_entry t name (fun e ->
      match e.health with
      | Dead { retry_at; _ } when (not e.probing) && now >= retry_at ->
        e.probing <- true;
        true
      | _ -> false)

(* --- circuit breaker ----------------------------------------------- *)

let set_breaker t name e b ~now =
  e.breaker <- b;
  if b <> Half_open then begin
    (* the window restarts on every trip and every close *)
    Array.fill e.outcomes 0 window false;
    e.widx <- 0;
    e.count <- 0
  end;
  if b = Open then e.open_until <- now +. cooldown_s;
  t.on_transition ~shard:name (Breaker b)

let failure_fraction e =
  let fails = ref 0 in
  for i = 0 to e.count - 1 do
    if e.outcomes.(i) then incr fails
  done;
  float_of_int !fails /. float_of_int (max 1 e.count)

let allow t name ~now =
  with_entry t name (fun e ->
      match e.breaker with
      | Closed -> true
      | Open when now >= e.open_until ->
        (* cooldown over: half-open, and this caller takes the trial *)
        set_breaker t name e Half_open ~now;
        true
      | Open | Half_open -> false)

let record t name ~now ~ok ~elapsed_ms =
  with_entry t name (fun e ->
      note_locked t name e ~now ~ok;
      let failed = (not ok) || elapsed_ms > slow_ms in
      match e.breaker with
      | Half_open -> set_breaker t name e (if failed then Open else Closed) ~now
      | Open ->
        (* a straggler from before the trip; the window restarts when
           the breaker closes, so discard it *)
        ()
      | Closed ->
        e.outcomes.(e.widx) <- failed;
        e.widx <- (e.widx + 1) mod window;
        e.count <- min window (e.count + 1);
        if e.count >= min_calls && failure_fraction e >= failure_rate then
          set_breaker t name e Open ~now)

(* --- warm-up ------------------------------------------------------- *)

let take_warm t name ~now =
  with_entry t name (fun e ->
      let due = e.warm_due in
      if due then begin
        e.warm_due <- false;
        e.warm_since <- Some now
      end;
      due)

let ramp t name ~now =
  with_entry t name (fun e ->
      match e.warm_since with
      | None -> 1.0
      | Some since ->
        let frac = (now -. since) /. warmup_s in
        if frac >= 1.0 then begin
          e.warm_since <- None;
          1.0
        end
        else Float.max 0.0 frac)

(* --- snapshots ----------------------------------------------------- *)

let health t name = with_entry t name (fun e -> e.health)
let breaker t name = with_entry t name (fun e -> e.breaker)

let open_count t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun _ e n -> if e.breaker = Closed then n else n + 1) t.table 0)
