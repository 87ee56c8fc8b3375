(* Gateway fleet tests: consistent-hash rebalance bounds, LRU cache
   accounting, per-shard state (eviction/re-admission, circuit breaker,
   warm-up ramp, driven by explicit timestamps), dispatch policies, canonical
   scenario hashing (collision sweep + round-trip stability + repro
   fingerprint), and an in-process gateway + 2 shards over loopback TCP
   with a mid-batch shard kill — zero lost, zero duplicated jobs. *)

module Ring = Cs_gateway.Ring
module Cache = Cs_gateway.Cache
module Shard_state = Cs_gateway.Shard_state
module Policy = Cs_gateway.Policy
module Journal = Cs_gateway.Journal
module Gateway = Cs_gateway.Gateway
module Proto = Cs_svc.Proto
module Transport = Cs_svc.Transport

(* --- consistent-hash ring ------------------------------------------ *)

let key_of i = Cs_core.Scenario.fnv1a (Printf.sprintf "key-%d" i)

let test_ring_route_stable () =
  let ring = Ring.make [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list string)) "shards" [ "a"; "b"; "c"; "d" ] (Ring.shards ring);
  for i = 0 to 99 do
    let k = key_of i in
    (match Ring.candidates ring k with
    | first :: rest ->
      Alcotest.(check (option string)) "route = first candidate" (Some first)
        (Ring.route ring k);
      Alcotest.(check int) "candidates cover every shard" 3 (List.length rest)
    | [] -> Alcotest.fail "no candidates");
    Alcotest.(check (option string)) "routing is deterministic"
      (Ring.route ring k) (Ring.route ring k)
  done

let test_ring_rebalance_bound () =
  let n_keys = 2000 in
  let shards = [ "a"; "b"; "c"; "d" ] in
  let ring = Ring.make shards in
  let before = Array.init n_keys (fun i -> Option.get (Ring.route ring (key_of i))) in
  let removed = "c" in
  let ring' = Ring.remove ring removed in
  let moved = ref 0 and owned = ref 0 in
  Array.iteri
    (fun i owner ->
      let owner' = Option.get (Ring.route ring' (key_of i)) in
      if owner = removed then begin
        incr owned;
        Alcotest.(check bool) "moved key lands on a survivor" true (owner' <> removed)
      end
      else
        (* the defining property: only the dead shard's keys move *)
        Alcotest.(check string) "surviving keys keep their shard" owner owner';
      if owner' <> owner then incr moved)
    before;
  Alcotest.(check int) "exactly the dead shard's keys move" !owned !moved;
  let share = float_of_int !moved /. float_of_int n_keys in
  Alcotest.(check bool)
    (Printf.sprintf "moved share %.3f within 2x of K/N" share)
    true
    (share > 0.05 && share < 2.0 /. float_of_int (List.length shards))

(* --- LRU cache ----------------------------------------------------- *)

let test_cache_lru_accounting () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  (* "b" was least recently used ("a" was promoted by the hit) *)
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

(* --- shard state ---------------------------------------------------- *)

(* Every call takes the time explicitly, so these tests drive the real
   constants (backoff schedule, 5 s cooldown, 5 s ramp) without
   sleeping. *)

let dead_info st name =
  match Shard_state.health st name with
  | Shard_state.Dead { retry_at; attempt; _ } -> (retry_at, attempt)
  | _ -> Alcotest.failf "%s should be dead" name

let transition_name = function
  | Shard_state.Evicted -> "evicted"
  | Shard_state.Readmitted -> "readmitted"
  | Shard_state.Breaker b -> Shard_state.breaker_name b

let test_health_evict_and_readmit () =
  let st = Shard_state.create [ "s1"; "s2" ] in
  let now = 100.0 in
  Alcotest.(check bool) "starts usable" true (Shard_state.usable st "s1");
  Shard_state.note st "s1" ~now ~ok:false;
  (match Shard_state.health st "s1" with
  | Shard_state.Suspect 1 -> ()
  | _ -> Alcotest.fail "one failure should be Suspect 1");
  Alcotest.(check bool) "suspect still usable" true (Shard_state.usable st "s1");
  Shard_state.note st "s1" ~now ~ok:false;
  Shard_state.note st "s1" ~now ~ok:false;
  let retry_at, attempt = dead_info st "s1" in
  Alcotest.(check int) "threshold failures bury the shard" 1 attempt;
  Alcotest.(check bool) "dead not usable" false (Shard_state.usable st "s1");
  Alcotest.(check bool) "no probe before backoff" false
    (Shard_state.probe_due st "s1" ~now:(retry_at -. 0.01));
  Alcotest.(check bool) "probe due after backoff" true
    (Shard_state.probe_due st "s1" ~now:retry_at);
  Alcotest.(check bool) "probation slot handed out once" false
    (Shard_state.probe_due st "s1" ~now:retry_at);
  Shard_state.note st "s1" ~now:retry_at ~ok:false;
  let retry_at', attempt = dead_info st "s1" in
  Alcotest.(check int) "failed probe takes the next backoff step" 2 attempt;
  Alcotest.(check bool) "second probe waits for the new window" false
    (Shard_state.probe_due st "s1" ~now:(retry_at' -. 0.01));
  Alcotest.(check bool) "second probe due" true
    (Shard_state.probe_due st "s1" ~now:retry_at');
  Shard_state.note st "s1" ~now:retry_at' ~ok:true;
  Alcotest.(check bool) "re-admitted" true (Shard_state.usable st "s1");
  Alcotest.(check (list string)) "alive filters" [ "s1"; "s2" ]
    (Shard_state.alive st [ "s1"; "s2" ]);
  Alcotest.(check bool) "unknown shards read healthy" true
    (Shard_state.usable st "s3")

let test_health_backoff_capped () =
  (* the doubling schedule would park a deep burial behind 30 s; every
     step is clamped so a returning shard is re-probed within 10 s *)
  let st = Shard_state.create ~fail_threshold:1 [ "s1" ] in
  let now = ref 0.0 in
  Shard_state.note st "s1" ~now:!now ~ok:false;
  let prev = ref 0.0 in
  for burial = 1 to 9 do
    let retry_at, attempt = dead_info st "s1" in
    Alcotest.(check int) "attempt advances" burial attempt;
    let delay = retry_at -. !now in
    Alcotest.(check bool)
      (Printf.sprintf "burial %d delay %.3fs within 10 s" burial delay)
      true
      (delay > 0.0 && delay <= 10.0 +. 1e-9);
    if burial <= 4 then
      Alcotest.(check bool)
        (Printf.sprintf "burial %d backs off further" burial)
        true (delay > !prev);
    prev := delay;
    now := retry_at;
    Alcotest.(check bool)
      (Printf.sprintf "probe due within the cap after burial %d" burial)
      true
      (Shard_state.probe_due st "s1" ~now:!now);
    (* failed probe: next (deeper) backoff step, still capped *)
    Shard_state.note st "s1" ~now:!now ~ok:false
  done

let test_breaker_trips_on_failure_rate () =
  let transitions = ref [] in
  let st =
    Shard_state.create
      ~on_transition:(fun ~shard:_ tr -> transitions := transition_name tr :: !transitions)
      ~fail_threshold:100 [ "s1"; "s2" ]
  in
  let now = 10.0 in
  Alcotest.(check bool) "closed allows" true (Shard_state.allow st "s1" ~now);
  for _ = 1 to 7 do
    Shard_state.record st "s1" ~now ~ok:false ~elapsed_ms:0.0
  done;
  (* 7 failures but min_calls is 8: the rate is not judged yet *)
  Alcotest.(check bool) "below min_calls stays closed" true
    (Shard_state.breaker st "s1" = Shard_state.Closed);
  Shard_state.record st "s1" ~now ~ok:false ~elapsed_ms:0.0;
  Alcotest.(check bool) "trips at min_calls + rate" true
    (Shard_state.breaker st "s1" = Shard_state.Open);
  Alcotest.(check bool) "open refuses" false (Shard_state.allow st "s1" ~now);
  Alcotest.(check bool) "other shard unaffected" true (Shard_state.allow st "s2" ~now);
  Alcotest.(check int) "tripped gauge" 1 (Shard_state.open_count st);
  Alcotest.(check bool) "still open just before the 5 s cooldown" false
    (Shard_state.allow st "s1" ~now:(now +. 4.99));
  (* cooldown -> half-open: exactly one trial *)
  Alcotest.(check bool) "cooldown grants a trial" true
    (Shard_state.allow st "s1" ~now:(now +. 5.0));
  Alcotest.(check bool) "half-open" true
    (Shard_state.breaker st "s1" = Shard_state.Half_open);
  Alcotest.(check bool) "no second trial" false
    (Shard_state.allow st "s1" ~now:(now +. 5.0));
  Shard_state.record st "s1" ~now:(now +. 5.1) ~ok:true ~elapsed_ms:1.0;
  Alcotest.(check bool) "good trial closes" true
    (Shard_state.breaker st "s1" = Shard_state.Closed);
  Alcotest.(check bool) "closed again allows" true
    (Shard_state.allow st "s1" ~now:(now +. 5.1));
  Alcotest.(check (list string)) "transition trail"
    [ "closed"; "half-open"; "open" ] !transitions;
  (* a rate below 0.5 over a full window never trips *)
  for i = 1 to 32 do
    Shard_state.record st "s2" ~now ~ok:(i mod 3 <> 0) ~elapsed_ms:0.0
  done;
  Alcotest.(check bool) "a third failing stays closed" true
    (Shard_state.breaker st "s2" = Shard_state.Closed)

let test_breaker_slow_calls_and_failed_probe () =
  let st = Shard_state.create [ "s1" ] in
  let now = 10.0 in
  (* nominally-successful calls above 30 s count toward the rate *)
  for _ = 1 to 8 do
    Shard_state.record st "s1" ~now ~ok:true ~elapsed_ms:30_001.0
  done;
  Alcotest.(check bool) "slow calls trip the breaker" true
    (Shard_state.breaker st "s1" = Shard_state.Open);
  Alcotest.(check bool) "slow calls do not evict" true (Shard_state.usable st "s1");
  Alcotest.(check bool) "trial granted" true
    (Shard_state.allow st "s1" ~now:(now +. 5.0));
  Shard_state.record st "s1" ~now:(now +. 5.0) ~ok:false ~elapsed_ms:0.0;
  Alcotest.(check bool) "failed trial re-opens" true
    (Shard_state.breaker st "s1" = Shard_state.Open);
  Alcotest.(check bool) "re-opened refuses" false
    (Shard_state.allow st "s1" ~now:(now +. 5.0));
  Alcotest.(check bool) "for a full new cooldown" false
    (Shard_state.allow st "s1" ~now:(now +. 9.99));
  Alcotest.(check bool) "then grants a new trial" true
    (Shard_state.allow st "s1" ~now:(now +. 10.0))

let test_shard_state_warm_up () =
  let st = Shard_state.create ~fail_threshold:1 [ "s1" ] in
  Alcotest.(check bool) "nothing to warm at start" false
    (Shard_state.take_warm st "s1" ~now:0.0);
  Alcotest.(check (float 0.0)) "not warming: full ramp" 1.0
    (Shard_state.ramp st "s1" ~now:0.0);
  (* re-admission through dispatch outcomes *)
  Shard_state.record st "s1" ~now:0.0 ~ok:false ~elapsed_ms:0.0;
  Alcotest.(check bool) "no warm-up for an eviction" false
    (Shard_state.take_warm st "s1" ~now:0.0);
  let retry_at, _ = dead_info st "s1" in
  Alcotest.(check bool) "probe due" true (Shard_state.probe_due st "s1" ~now:retry_at);
  Shard_state.note st "s1" ~now:retry_at ~ok:true;
  let t0 = 50.0 in
  Alcotest.(check bool) "re-admission hands out the warm-up" true
    (Shard_state.take_warm st "s1" ~now:t0);
  Alcotest.(check bool) "once" false (Shard_state.take_warm st "s1" ~now:t0);
  Alcotest.(check (float 1e-9)) "ramp starts at 0" 0.0 (Shard_state.ramp st "s1" ~now:t0);
  Alcotest.(check (float 1e-9)) "half way at +2.5 s" 0.5
    (Shard_state.ramp st "s1" ~now:(t0 +. 2.5));
  Alcotest.(check (float 1e-9)) "full at +5 s" 1.0
    (Shard_state.ramp st "s1" ~now:(t0 +. 5.0));
  Alcotest.(check (float 1e-9)) "a completed ramp is over, not re-read" 1.0
    (Shard_state.ramp st "s1" ~now:(t0 +. 1.0));
  (* a heartbeat-style note re-admits, and warms, just as well *)
  Shard_state.note st "s1" ~now:60.0 ~ok:false;
  Alcotest.(check bool) "evicted again" false (Shard_state.usable st "s1");
  Shard_state.note st "s1" ~now:60.1 ~ok:true;
  Alcotest.(check bool) "heartbeat re-admission warms" true
    (Shard_state.take_warm st "s1" ~now:61.0);
  Alcotest.(check bool) "once per re-admission" false
    (Shard_state.take_warm st "s1" ~now:61.0);
  Alcotest.(check (float 1e-9)) "ramp restarted" 0.0
    (Shard_state.ramp st "s1" ~now:61.0)

let test_shard_state_input_routing () =
  let transitions = ref [] in
  let st =
    Shard_state.create
      ~on_transition:(fun ~shard tr ->
        transitions := (shard ^ ":" ^ transition_name tr) :: !transitions)
      [ "probe"; "dispatch" ]
  in
  (* probe/heartbeat failures evict but never touch the breaker *)
  for _ = 1 to 10 do
    Shard_state.note st "probe" ~now:1.0 ~ok:false
  done;
  Alcotest.(check bool) "failed notes evict" false (Shard_state.usable st "probe");
  Alcotest.(check bool) "breaker still closed" true
    (Shard_state.breaker st "probe" = Shard_state.Closed);
  Alcotest.(check int) "nothing tripped" 0 (Shard_state.open_count st);
  (* dispatch outcomes feed both criteria *)
  for _ = 1 to 8 do
    Shard_state.record st "dispatch" ~now:1.0 ~ok:false ~elapsed_ms:0.0
  done;
  Alcotest.(check bool) "failed records evict" false (Shard_state.usable st "dispatch");
  Alcotest.(check bool) "and trip the breaker" true
    (Shard_state.breaker st "dispatch" = Shard_state.Open);
  Alcotest.(check int) "one tripped" 1 (Shard_state.open_count st);
  Alcotest.(check (list string)) "typed transitions, in order"
    [ "probe:evicted"; "dispatch:evicted"; "dispatch:open" ]
    (List.rev !transitions)

(* --- durable journal ----------------------------------------------- *)

let journal_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cs_journal_%s_%d_%d" name (Unix.getpid ()) !n)

let test_journal_recovery_and_dedup () =
  let dir = journal_dir "unit" in
  let req = Proto.request ~id:"a" ~idem_key:"retry-a" ~machine:"raw4" "fir" in
  let j = Journal.open_dir ~dir ~recover:false () in
  Journal.admit j ~key:"K1" req;
  Alcotest.(check int) "admit counts as lag" 1 (Journal.lag j);
  Alcotest.(check bool) "not completed yet" true (Journal.completed j "K1" = None);
  Journal.close j;
  (* crash before the done record: recovery must replay the admit *)
  let j2 = Journal.open_dir ~dir ~recover:true () in
  (match Journal.pending j2 with
  | [ (key, req') ] ->
    Alcotest.(check string) "pending key" "K1" key;
    Alcotest.(check string) "request survives the log" req.Proto.id req'.Proto.id;
    Alcotest.(check (option string)) "idem key survives the log"
      req.Proto.idem_key req'.Proto.idem_key
  | l -> Alcotest.failf "expected one pending job, got %d" (List.length l));
  let reply =
    Proto.reply ~id:"a" ~elapsed_ms:2.0
      (Proto.Scheduled
         { cycles = 17; transfers = 3; rung = "requested"; timed_out = false;
           quarantined = 0 })
  in
  Journal.mark_done j2 ~key:"K1" reply;
  Alcotest.(check int) "done clears lag" 0 (Journal.lag j2);
  Journal.close j2;
  (* after the done record, recovery feeds the dedup map instead *)
  let j3 = Journal.open_dir ~dir ~recover:true () in
  Alcotest.(check int) "nothing pending" 0 (List.length (Journal.pending j3));
  (match Journal.completed j3 "K1" with
  | Some r -> Alcotest.(check bool) "verdict preserved" true (r.Proto.verdict = reply.Proto.verdict)
  | None -> Alcotest.fail "done key must be in the dedup map");
  Journal.close j3;
  (* recover:false is an explicit fresh start *)
  let j4 = Journal.open_dir ~dir ~recover:false () in
  Alcotest.(check bool) "journal discarded without recover" true
    (Journal.completed j4 "K1" = None);
  Journal.close j4

(* --- dispatch policy ----------------------------------------------- *)

let test_policy_orderings () =
  let ring = Ring.make [ "a"; "b"; "c" ] in
  let key = key_of 7 in
  let views depths_ewmas =
    List.map
      (fun (name, queue_depth, ewma_ms) -> { Policy.name; queue_depth; ewma_ms })
      depths_ewmas
  in
  let all = views [ ("a", 5, 100.0); ("b", 0, 100.0); ("c", 2, 100.0) ] in
  Alcotest.(check (list string)) "hash = ring order"
    (Ring.candidates ring key)
    (Policy.order Policy.Hash ~ring ~key ~deadline_ms:None all);
  (match Policy.order Policy.Least_loaded ~ring ~key ~deadline_ms:None all with
  | first :: _ -> Alcotest.(check string) "least-loaded picks empty queue" "b" first
  | [] -> Alcotest.fail "no candidates");
  (* WCT: a fast shard with a short queue beats a slow shard, and a
     deadline deprioritizes shards predicted to miss it. *)
  let skewed = views [ ("a", 0, 1000.0); ("b", 2, 10.0); ("c", 9, 10.0) ] in
  (match Policy.order Policy.Weighted_completion_time ~ring ~key ~deadline_ms:(Some 50.0) skewed with
  | first :: _ -> Alcotest.(check string) "wct prefers predicted-to-make shard" "b" first
  | [] -> Alcotest.fail "no candidates");
  Alcotest.(check int) "policies permute, never drop" 3
    (List.length (Policy.order Policy.Weighted_completion_time ~ring ~key ~deadline_ms:None all))

(* --- canonical scenario hash --------------------------------------- *)

let scenario_hash (sc : Cs_check.Scenario.t) =
  Cs_core.Scenario.canonical_hash ~faults:sc.Cs_check.Scenario.faults
    ~spec:(Cs_check.Scenario.spec_to_string sc.Cs_check.Scenario.spec)
    ~machine:sc.Cs_check.Scenario.machine sc.Cs_check.Scenario.region

let scenario_form (sc : Cs_check.Scenario.t) =
  Cs_core.Scenario.canonical_form ~faults:sc.Cs_check.Scenario.faults
    ~spec:(Cs_check.Scenario.spec_to_string sc.Cs_check.Scenario.spec)
    ~machine:sc.Cs_check.Scenario.machine sc.Cs_check.Scenario.region

let test_hash_collision_sweep () =
  (* Sweep the fuzz generator's seed space: distinct canonical forms must
     hash distinctly. (Equal forms — the generator's space is finite —
     are legitimately equal scenarios, not collisions.) *)
  let seen = Hashtbl.create 256 in
  let distinct = ref 0 in
  for seed = 0 to 149 do
    let sc = Cs_check.Gen.case ~seed in
    let form = scenario_form sc in
    let h = scenario_hash sc in
    match Hashtbl.find_opt seen h with
    | None ->
      Hashtbl.replace seen h form;
      incr distinct
    | Some prior ->
      if not (String.equal prior form) then
        Alcotest.failf "hash collision at seed %d: %Lx" seed h
  done;
  Alcotest.(check bool) "sweep exercised many distinct scenarios" true (!distinct > 100)

let test_hash_roundtrip_stable () =
  (* The hash must survive serialize/parse: Textual.of_string renumbers
     registers, so this exercises the renaming-invariant canonical
     form. *)
  for seed = 0 to 19 do
    let sc = Cs_check.Gen.case ~seed in
    let region = sc.Cs_check.Scenario.region in
    match Cs_ddg.Textual.of_string (Cs_ddg.Textual.to_string region) with
    | Error e -> Alcotest.failf "seed %d: reparse failed: %s" seed e
    | Ok region' ->
      let machine = sc.Cs_check.Scenario.machine in
      Alcotest.(check string)
        (Printf.sprintf "seed %d hash stable across round trip" seed)
        (Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~machine region))
        (Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~machine region'))
  done

let test_repro_fingerprint () =
  let sc = Cs_check.Gen.case ~seed:5 in
  let t = { Cs_check.Repro.scenario = sc; check = Some "validator"; note = None } in
  let text = Cs_check.Repro.to_string t in
  Alcotest.(check bool) "fingerprint header present" true
    (List.exists
       (fun l -> String.length l > 12 && String.sub l 0 12 = "fingerprint ")
       (String.split_on_char '\n' text));
  (match Cs_check.Repro.of_string text with
  | Ok t' ->
    Alcotest.(check string) "round-trips with fingerprint"
      (Cs_check.Repro.fingerprint sc)
      (Cs_check.Repro.fingerprint t'.Cs_check.Repro.scenario)
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* Tamper with a hashed field: the load must be rejected. *)
  let tampered =
    String.concat "\n"
      (List.map
         (fun l ->
           if String.length l > 5 && String.sub l 0 5 = "seed " then "seed 424242"
           else l)
         (String.split_on_char '\n' text))
  in
  match Cs_check.Repro.of_string tampered with
  | Error e ->
    Alcotest.(check bool) "error names the fingerprint" true
      (String.length e >= 11 && String.sub e 0 11 = "fingerprint")
  | Ok _ -> Alcotest.fail "tampered repro must be rejected"

(* --- transport + pong codecs --------------------------------------- *)

let test_transport_parse () =
  (match Transport.parse "127.0.0.1:7100" with
  | Ok (Transport.Tcp { host = "127.0.0.1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "host:port should parse as TCP");
  (match Transport.parse ":7100" with
  | Ok (Transport.Tcp { host = ""; port = 7100 }) -> ()
  | _ -> Alcotest.fail ":port should parse as TCP on all interfaces");
  (match Transport.parse "/tmp/x.sock" with
  | Ok (Transport.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "path should parse as Unix socket");
  (match Transport.parse "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric port must error");
  (match Transport.parse "host:70000" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range port must error");
  (match Transport.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty address must error");
  List.iter
    (fun s ->
      match Transport.parse s with
      | Ok addr -> Alcotest.(check string) "to_string round trip" s (Transport.to_string addr)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [ "127.0.0.1:7100"; "/tmp/csched.sock" ]

let test_pong_roundtrip () =
  let s =
    { Proto.queue_depth = 4; workers = 2; busy = 1; admitted = 10; completed = 7;
      shed = 2; refusals = 1;
      extra = [ ("cache_hits", 5.0); ("shards_alive", 2.0) ] }
  in
  match Proto.pong_of_line (Proto.pong_to_line ~id:"probe" s) with
  | Error e -> Alcotest.failf "pong round trip failed: %s" e
  | Ok (id, s') ->
    Alcotest.(check string) "id" "probe" id;
    Alcotest.(check int) "queue_depth" s.Proto.queue_depth s'.Proto.queue_depth;
    Alcotest.(check int) "busy" s.Proto.busy s'.Proto.busy;
    let sorted l = List.sort compare l in
    Alcotest.(check (list (pair string (float 0.0)))) "extra round-trips"
      (sorted s.Proto.extra) (sorted s'.Proto.extra)

(* --- in-process fleet ---------------------------------------------- *)

let with_server ?chaos_slow_ms ?(workers = 2) spec f =
  let cfg = Cs_svc.Server.config ~workers ?chaos_slow_ms spec in
  let server = Cs_svc.Server.create cfg in
  let d = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Cs_svc.Server.stop server;
      Domain.join d)
    (fun () -> f server)

let with_gateway cfg f =
  let gw = Gateway.create cfg in
  let d = Domain.spawn (fun () -> Gateway.run gw) in
  Fun.protect
    ~finally:(fun () ->
      Gateway.stop gw;
      Domain.join d)
    (fun () -> f gw)

let shard_spec server = Transport.to_string (Cs_svc.Server.address server)

let test_gateway_journal_exactly_once_across_restart () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let dir = journal_dir "e2e" in
  let cfg recover =
    Gateway.config ~forwarders:2 ~probe_period_s:0.2 ~journal_dir:dir ~recover
      ~shards:[ shard_spec s1 ] "127.0.0.1:0"
  in
  let jobs =
    List.init 4 (fun i ->
        Proto.request
          ~id:(Printf.sprintf "job-%d" i)
          ~idem_key:(Printf.sprintf "key-%d" i)
          ~machine:"raw4" ~seed:i "fir")
  in
  let cycles_of replies =
    List.map
      (fun r ->
        match r.Proto.verdict with
        | Proto.Scheduled { cycles; _ } -> (r.Proto.reply_id, cycles)
        | Proto.Refused e ->
          Alcotest.failf "job %s refused: %s" r.Proto.reply_id e.message)
      (List.sort (fun a b -> compare a.Proto.reply_id b.Proto.reply_id) replies)
  in
  let first =
    with_gateway (cfg false) @@ fun gw ->
    match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
    | Error e -> Alcotest.failf "first submit failed: %s" e
    | Ok replies -> cycles_of replies
  in
  (* a new gateway over the same journal dir = restart with --recover;
     the same idempotency keys must be answered from the journal with
     the identical verdicts, no shard hop *)
  with_gateway (cfg true) @@ fun gw2 ->
  match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw2) jobs with
  | Error e -> Alcotest.failf "post-recovery submit failed: %s" e
  | Ok replies ->
    Alcotest.(check (list (pair string int))) "verdicts identical across restart"
      first (cycles_of replies);
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s served from the journal" r.Proto.reply_id)
          true r.Proto.cached)
      replies;
    let st = Gateway.stats gw2 in
    Alcotest.(check int) "every retry was a journal hit" (List.length jobs)
      st.Gateway.journal_hits;
    Alcotest.(check int) "no job re-dispatched to a shard" 0 st.Gateway.forwarded;
    Alcotest.(check int) "journal fully drained" 0 st.Gateway.journal_pending

let test_gateway_cache_accounting () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg =
    Gateway.config ~cache_capacity:16 ~forwarders:2 ~probe_period_s:0.2
      ~shards:[ shard_spec s1 ] "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let addr = Gateway.address gw in
  let jobs =
    List.init 3 (fun i ->
        Proto.request ~id:(Printf.sprintf "w%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
  | Error e -> Alcotest.failf "warm wave failed: %s" e
  | Ok replies ->
    Alcotest.(check int) "warm wave answered" 3 (List.length replies);
    List.iter
      (fun r -> Alcotest.(check bool) "warm wave not cached" false r.Proto.cached)
      replies);
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
  | Error e -> Alcotest.failf "repeat wave failed: %s" e
  | Ok replies ->
    Alcotest.(check int) "repeat wave answered" 3 (List.length replies);
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s served from cache" r.Proto.reply_id)
          true r.Proto.cached;
        match r.Proto.verdict with
        | Proto.Scheduled s -> Alcotest.(check bool) "real schedule" true (s.cycles > 0)
        | Proto.Refused e -> Alcotest.failf "cached job refused: %s" e.message)
      replies);
  let st = Gateway.stats gw in
  Alcotest.(check int) "3 hits" 3 st.Gateway.cache_hits;
  Alcotest.(check int) "3 misses" 3 st.Gateway.cache_misses;
  Alcotest.(check int) "only the misses hit a shard" 3 st.Gateway.forwarded;
  (* refusals are never cached: an impossible deadline on a fresh
     scenario misses twice and leaves the cache untouched *)
  let doomed i =
    [ Proto.request ~id:(Printf.sprintf "d%d" i) ~machine:"raw4" ~seed:77
        ~deadline_ms:0.0 "fir" ]
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr (doomed 0) with
  | Ok [ r ] -> (
    match r.Proto.verdict with
    | Proto.Refused e -> Alcotest.(check string) "typed refusal" "deadline-exceeded" e.kind
    | _ -> Alcotest.fail "impossible deadline must refuse")
  | Ok _ | Error _ -> Alcotest.fail "doomed job must get one reply");
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr (doomed 1) with
  | Ok [ r ] -> Alcotest.(check bool) "refusal was not cached" false r.Proto.cached
  | Ok _ | Error _ -> Alcotest.fail "doomed job must get one reply");
  let st = Gateway.stats gw in
  Alcotest.(check int) "refusal wave added two misses" 5 st.Gateway.cache_misses;
  Alcotest.(check int) "refusal wave added no hits" 3 st.Gateway.cache_hits

let test_gateway_failover_exactly_once () =
  (* 2 shards on loopback TCP, every job slowed so the batch is still in
     flight when one shard is SIGKILL-equivalently severed mid-batch:
     every job must be answered exactly once, the in-flight jobs of the
     dead shard replayed on the survivor. *)
  with_server ~chaos_slow_ms:250.0 "127.0.0.1:0" @@ fun s1 ->
  with_server ~chaos_slow_ms:250.0 "127.0.0.1:0" @@ fun s2 ->
  let cfg =
    Gateway.config ~forwarders:4 ~probe_period_s:0.15
      ~shards:[ shard_spec s1; shard_spec s2 ]
      "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let n_jobs = 8 in
  let jobs =
    List.init n_jobs (fun i ->
        Proto.request ~id:(Printf.sprintf "job%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.12;
        (* kill whichever shard actually holds jobs *)
        let victim =
          if (Cs_svc.Server.stats s1).Cs_svc.Server.admitted > 0 then s1 else s2
        in
        Cs_svc.Server.abort victim;
        Transport.to_string (Cs_svc.Server.address victim))
  in
  let replies =
    match Cs_svc.Client.submit ~timeout_s:120.0 ~addr:(Gateway.address gw) jobs with
    | Error e -> Alcotest.failf "submit through gateway failed: %s" e
    | Ok replies -> replies
  in
  let victim_name = Domain.join killer in
  Alcotest.(check int) "zero lost jobs" n_jobs (List.length replies);
  List.iter
    (fun (job : Proto.request) ->
      let matching =
        List.filter (fun r -> r.Proto.reply_id = job.Proto.id) replies
      in
      Alcotest.(check int)
        (Printf.sprintf "%s answered exactly once" job.Proto.id)
        1 (List.length matching);
      match (List.hd matching).Proto.verdict with
      | Proto.Scheduled s ->
        Alcotest.(check bool) "replayed job got a real schedule" true (s.cycles > 0)
      | Proto.Refused e ->
        Alcotest.failf "%s refused after failover: %s %s" job.Proto.id e.kind e.message)
    jobs;
  let st = Gateway.stats gw in
  Alcotest.(check bool)
    (Printf.sprintf "in-flight jobs were replayed (%d)" st.Gateway.replayed)
    true (st.Gateway.replayed >= 1);
  (match List.assoc_opt victim_name (Gateway.shard_states gw) with
  | Some Shard_state.Healthy -> Alcotest.fail "dead shard still marked healthy"
  | Some _ -> ()
  | None -> Alcotest.fail "victim missing from health table");
  (* the fleet keeps serving on the survivor *)
  match
    Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw)
      [ Proto.request ~id:"after" ~machine:"raw4" ~seed:99 "fir" ]
  with
  | Ok [ r ] -> (
    match r.Proto.verdict with
    | Proto.Scheduled _ -> ()
    | Proto.Refused e -> Alcotest.failf "post-failover job refused: %s" e.message)
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "post-failover submit failed: %s" e

let test_gateway_stats_verb () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg = Gateway.config ~shards:[ shard_spec s1 ] "127.0.0.1:0" in
  with_gateway cfg @@ fun gw ->
  (* shard-level stats verb *)
  (match Cs_svc.Client.fetch_stats ~addr:(Cs_svc.Server.address s1) () with
  | Error e -> Alcotest.failf "shard stats failed: %s" e
  | Ok s ->
    Alcotest.(check int) "shard workers" 2 s.Proto.workers;
    Alcotest.(check int) "shard queue empty" 0 s.Proto.queue_depth);
  (* gateway-level stats verb carries fleet counters *)
  (match
     Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw)
       [ Proto.request ~id:"one" ~machine:"raw4" "fir" ]
   with
  | Ok [ _ ] -> ()
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  match Cs_svc.Client.fetch_stats ~addr:(Gateway.address gw) () with
  | Error e -> Alcotest.failf "gateway stats failed: %s" e
  | Ok s ->
    Alcotest.(check int) "gateway completed" 1 s.Proto.completed;
    let extra k = List.assoc_opt k s.Proto.extra in
    Alcotest.(check (option (float 0.0))) "shards_total" (Some 1.0) (extra "shards_total");
    Alcotest.(check (option (float 0.0))) "shards_alive" (Some 1.0) (extra "shards_alive");
    Alcotest.(check (option (float 0.0))) "forwarded" (Some 1.0) (extra "forwarded");
    Alcotest.(check bool) "cache counters present" true
      (extra "cache_hits" <> None && extra "cache_misses" <> None)

let test_gateway_metrics_verb_accounts_every_job () =
  let module M = Cs_obs.Metrics in
  with_server "127.0.0.1:0" @@ fun s1 ->
  with_server "127.0.0.1:0" @@ fun s2 ->
  let cfg =
    Gateway.config ~forwarders:2 ~probe_period_s:0.2
      ~shards:[ shard_spec s1; shard_spec s2 ]
      "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let n = 6 in
  let jobs =
    List.init n (fun i ->
        Proto.request ~id:(Printf.sprintf "m%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
  | Ok rs -> Alcotest.(check int) "all answered" n (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  let snap_of addr =
    match Cs_svc.Client.fetch_metrics ~addr () with
    | Ok (Proto.Snapshot snap) -> snap
    | Ok (Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
    | Error e -> Alcotest.failf "metrics verb failed: %s" e
  in
  let counter snap name =
    match M.find snap name with Some (M.Counter_v v) -> v | _ -> 0
  in
  let gw_snap = snap_of (Gateway.address gw) in
  let s1_snap = snap_of (Cs_svc.Server.address s1) in
  let s2_snap = snap_of (Cs_svc.Server.address s2) in
  Alcotest.(check int) "gateway admitted every client job" n
    (counter gw_snap "csched_jobs_admitted_total");
  Alcotest.(check int) "shard admissions account for every forwarded job" n
    (counter s1_snap "csched_jobs_admitted_total"
    + counter s2_snap "csched_jobs_admitted_total"
    + counter gw_snap "csched_cache_hits_total");
  let forwarded_by_label =
    M.fold_name gw_snap "csched_gateway_forwarded_total" ~init:0 ~f:(fun acc _ e ->
        match e with M.Counter_v v -> acc + v | _ -> acc)
  in
  Alcotest.(check int) "per-shard forwarded counters sum to the batch" n
    forwarded_by_label;
  (* merged fleet snapshot: job latency histogram holds every observation *)
  let merged = M.merge_all [ gw_snap; s1_snap; s2_snap ] in
  (match M.find merged "csched_job_latency_ms" with
  | Some (M.Histo_v h) ->
    Alcotest.(check int) "merged latency histogram sees gateway + shard samples"
      (2 * n) (M.total h)
  | _ -> Alcotest.fail "merged latency histogram missing");
  (* the Prometheus rendering of the same registry parses line by line *)
  match Cs_svc.Client.fetch_metrics ~format:Proto.Metrics_prometheus
          ~addr:(Gateway.address gw) ()
  with
  | Ok (Proto.Prom_text text) ->
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           if line <> "" && line.[0] <> '#' then
             match String.rindex_opt line ' ' with
             | None -> Alcotest.failf "unparseable sample: %s" line
             | Some i ->
               if
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
                 = None
               then Alcotest.failf "non-numeric value: %s" line)
  | Ok (Proto.Snapshot _) -> Alcotest.fail "asked for prometheus, got json"
  | Error e -> Alcotest.failf "prometheus fetch failed: %s" e

(* A shard accepts one connection per forwarded job and per probe; once
   the batch is answered, closed ones must have dropped out of every
   listener. *)
let test_fleet_drops_closed_connections () =
  let module M = Cs_obs.Metrics in
  with_server "127.0.0.1:0" @@ fun s1 ->
  with_server "127.0.0.1:0" @@ fun s2 ->
  let cfg =
    Gateway.config ~forwarders:2 ~probe_period_s:0.1
      ~shards:[ shard_spec s1; shard_spec s2 ]
      "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let n = 24 in
  let jobs =
    List.init n (fun i ->
        Proto.request ~id:(Printf.sprintf "c%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
  | Ok rs -> Alcotest.(check int) "all answered" n (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  List.iter
    (fun (who, addr) ->
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Ok (Proto.Snapshot snap) ->
        (match M.find snap "csched_connections_open" with
        | Some (M.Gauge_v v) ->
          if v > 2.0 then Alcotest.failf "%s holds %.0f connections" who v
        | _ -> Alcotest.failf "%s: connections gauge missing" who)
      | Ok (Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
      | Error e -> Alcotest.failf "%s: metrics verb failed: %s" who e)
    [ ("shard 1", Cs_svc.Server.address s1); ("shard 2", Cs_svc.Server.address s2);
      ("gateway", Gateway.address gw) ]

let test_gateway_trace_propagation () =
  (* In-process gateway + shard share one Obs sink, so one traced job
     leaves both halves of the cross-process story in a single capture:
     the gateway's dispatch span parented on the client's root span, and
     the shard's run span parented on the gateway's dispatch span, all
     under one trace id. *)
  let module Obs = Cs_obs.Obs in
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg = Gateway.config ~shards:[ shard_spec s1 ] "127.0.0.1:0" in
  with_gateway cfg @@ fun gw ->
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ())
  @@ fun () ->
  let ctx = Cs_obs.Tracectx.root () in
  let r =
    Proto.with_trace ~ctx (Proto.request ~id:"traced" ~machine:"raw4" "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) [ r ] with
  | Ok [ _ ] -> ()
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  Obs.disable ();
  let evs = Obs.events () in
  let arg_str key e =
    List.fold_left
      (fun acc (k, v) ->
        match v with Obs.Str s when k = key -> Some s | _ -> acc)
      None e.Obs.args
  in
  let find_span name =
    match
      List.find_opt
        (fun e -> e.Obs.name = name && arg_str "trace_id" e = Some ctx.Cs_obs.Tracectx.trace_id)
        evs
    with
    | Some e -> e
    | None -> Alcotest.failf "no %s span carrying the trace id" name
  in
  let dispatch = find_span "job:dispatch" in
  let run = find_span "job:run" in
  Alcotest.(check (option string)) "dispatch parented on the client root span"
    (Some ctx.Cs_obs.Tracectx.span_id)
    (arg_str "parent_span" dispatch);
  Alcotest.(check (option string)) "shard run parented on the dispatch span"
    (arg_str "span_id" dispatch)
    (arg_str "parent_span" run);
  Alcotest.(check bool) "hops mint distinct span ids" false
    (arg_str "span_id" dispatch = arg_str "span_id" run)

(* A zero or NaN probe period spins the prober without sleeping, and a
   NaN shard timeout is never enforced; a zero threshold, cache or queue
   would only fail in [create], after the listen address is bound.
   Config must refuse them all. *)
let test_config_rejects_bad_values () =
  let cfg ?probe_period_s ?shard_timeout_s ?fail_threshold ?cache_capacity
      ?queue_capacity () =
    Gateway.config ?probe_period_s ?shard_timeout_s ?fail_threshold
      ?cache_capacity ?queue_capacity ~shards:[ "127.0.0.1:1" ] "127.0.0.1:0"
  in
  let rejects what f =
    match f () with
    | (_ : Gateway.config) -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun v ->
      rejects (Printf.sprintf "probe_period_s %g" v) (fun () ->
          cfg ~probe_period_s:v ()))
    [ nan; 0.0; -1.0; infinity ];
  List.iter
    (fun v ->
      rejects (Printf.sprintf "shard_timeout_s %g" v) (fun () ->
          cfg ~shard_timeout_s:v ()))
    [ nan; -1.0; infinity ];
  List.iter
    (fun v ->
      rejects (Printf.sprintf "fail_threshold %d" v) (fun () -> cfg ~fail_threshold:v ());
      rejects (Printf.sprintf "cache_capacity %d" v) (fun () -> cfg ~cache_capacity:v ());
      rejects (Printf.sprintf "queue_capacity %d" v) (fun () -> cfg ~queue_capacity:v ()))
    [ 0; -1 ];
  ignore
    (cfg ~probe_period_s:0.05 ~shard_timeout_s:0.0 ~fail_threshold:1
       ~cache_capacity:1 ~queue_capacity:1 ())

let () =
  (* aborted shards close sockets mid-write; surface that as EPIPE, not
     a process kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "gateway"
    [
      ( "ring",
        [
          Alcotest.test_case "route stable + candidates" `Quick test_ring_route_stable;
          Alcotest.test_case "rebalance bound on shard loss" `Quick
            test_ring_rebalance_bound;
        ] );
      ("cache", [ Alcotest.test_case "lru accounting" `Quick test_cache_lru_accounting ]);
      ( "health",
        [
          Alcotest.test_case "evict + backoff readmit" `Quick test_health_evict_and_readmit;
          Alcotest.test_case "backoff capped at max interval" `Quick
            test_health_backoff_capped;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on failure rate" `Quick
            test_breaker_trips_on_failure_rate;
          Alcotest.test_case "slow calls + failed probe" `Quick
            test_breaker_slow_calls_and_failed_probe;
        ] );
      ( "shard-state",
        [
          Alcotest.test_case "warm-up once per re-admission" `Quick
            test_shard_state_warm_up;
          Alcotest.test_case "notes evict, records feed both" `Quick
            test_shard_state_input_routing;
        ] );
      ( "journal",
        [
          Alcotest.test_case "recovery + dedup" `Quick test_journal_recovery_and_dedup;
        ] );
      ("policy", [ Alcotest.test_case "orderings" `Quick test_policy_orderings ]);
      ( "scenario-hash",
        [
          Alcotest.test_case "collision sweep over fuzz seeds" `Slow
            test_hash_collision_sweep;
          Alcotest.test_case "stable across textual round trip" `Quick
            test_hash_roundtrip_stable;
          Alcotest.test_case "repro fingerprint" `Quick test_repro_fingerprint;
        ] );
      ( "codec",
        [
          Alcotest.test_case "transport parse" `Quick test_transport_parse;
          Alcotest.test_case "pong roundtrip" `Quick test_pong_roundtrip;
          Alcotest.test_case "config rejects bad values" `Quick
            test_config_rejects_bad_values;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "cache hit/miss accounting" `Slow
            test_gateway_cache_accounting;
          Alcotest.test_case "mid-batch shard kill: exactly once" `Slow
            test_gateway_failover_exactly_once;
          Alcotest.test_case "journal: exactly once across restart" `Slow
            test_gateway_journal_exactly_once_across_restart;
          Alcotest.test_case "stats verb" `Slow test_gateway_stats_verb;
          Alcotest.test_case "metrics verb accounts every job" `Slow
            test_gateway_metrics_verb_accounts_every_job;
          Alcotest.test_case "trace propagation gateway -> shard" `Slow
            test_gateway_trace_propagation;
          Alcotest.test_case "closed connections dropped" `Slow
            test_fleet_drops_closed_connections;
        ] );
    ]
