(* Durable exactly-once job journal on top of Cs_util.Wal.

   Two record kinds, one JSON object per WAL record:

     {"t":"admit","k":<journal key>,"req":<Proto request>}
     {"t":"done","k":<journal key>,"rep":<Proto reply>}

   The in-memory view is a key -> Pending request | Done reply table.
   Recovery folds the records in order; admits without a done are the
   replay set, dones feed the dedup map. *)

module Proto = Cs_svc.Proto
module Json = Cs_obs.Json
module Wal = Cs_util.Wal

type entry = Pending of Proto.request | Done of Proto.reply

type t = {
  wal : Wal.t;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  pending_order : string Queue.t;  (* admit order; lazily filtered *)
  dones_order : string Queue.t;  (* completion order, dedup horizon *)
  mutable pending_n : int;
  mutable dones_n : int;
  max_done : int;
  compact_bytes : int;
  truncated : int;
}

let encode_admit ~key req =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "admit"); ("k", Json.Str key);
         ("req", Proto.request_to_json req) ])

let encode_done ~key reply =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "done"); ("k", Json.Str key);
         ("rep", Proto.reply_to_json reply) ])

(* Bound the dedup map: forget the oldest completed keys. Their WAL
   records stay until the next compaction; reloading them just
   re-populates and re-evicts in the same order. *)
let evict_dones_locked t =
  while t.dones_n > t.max_done do
    match Queue.pop t.dones_order with
    | key ->
      t.dones_n <- t.dones_n - 1;
      (match Hashtbl.find_opt t.table key with
      | Some (Done _) -> Hashtbl.remove t.table key
      | Some (Pending _) | None -> ())
    | exception Queue.Empty -> t.dones_n <- 0
  done

(* The first journaled verdict of a key stands: a second done of a
   [Done] key changes nothing, just as an admit of a known key does, so
   the key sits in [dones_order] once. Recovery evicts after each done
   record as the live journal did, so a key finished again after its
   eviction comes back with the same horizon. Returns whether the done
   was new. *)
let record_done_locked t ~key reply =
  let fresh =
    match Hashtbl.find_opt t.table key with
    | Some (Done _) -> false
    | Some (Pending _) -> t.pending_n <- t.pending_n - 1; true
    | None -> true
  in
  if fresh then begin
    Hashtbl.replace t.table key (Done reply);
    Queue.push key t.dones_order;
    t.dones_n <- t.dones_n + 1;
    evict_dones_locked t
  end;
  fresh

(* Apply one journal record to the table. Unparseable records are
   skipped: the CRC layer already guarantees they are not torn writes,
   so the only way to see one is a version skew — and dropping an
   unknown record degrades to a replay, which is safe. *)
let load_record t payload =
  match Json.of_string payload with
  | Error _ -> ()
  | Ok json ->
    let str k =
      match Json.member k json with Some (Json.Str s) -> Some s | _ -> None
    in
    (match (str "t", str "k") with
    | Some "admit", Some key ->
      (match Json.member "req" json with
      | Some req_json ->
        (match Proto.request_of_json req_json with
        | Ok req ->
          if not (Hashtbl.mem t.table key) then begin
            Hashtbl.replace t.table key (Pending req);
            Queue.push key t.pending_order;
            t.pending_n <- t.pending_n + 1
          end
        | Error _ -> ())
      | None -> ())
    | Some "done", Some key ->
      (match Json.member "rep" json with
      | Some rep_json ->
        (match Proto.reply_of_json rep_json with
        | Ok reply -> ignore (record_done_locked t ~key reply)
        | Error _ -> ())
      | None -> ())
    | _ -> ())

let open_dir ?(max_done = 4096) ?(compact_bytes = 4 lsl 20) ~dir ~recover () =
  let wal, recovery = Wal.open_dir ~dir () in
  let t =
    { wal; mutex = Mutex.create (); table = Hashtbl.create 64;
      pending_order = Queue.create (); dones_order = Queue.create ();
      pending_n = 0; dones_n = 0; max_done; compact_bytes;
      truncated = recovery.Wal.truncated_bytes }
  in
  if recover then begin
    List.iter (load_record t) recovery.Wal.records;
    if t.pending_n > 0 || recovery.Wal.truncated_bytes > 0 then
      Cs_obs.Obs.instant ~cat:"gateway"
        ~args:
          [ ("pending", Cs_obs.Obs.Int t.pending_n);
            ("truncated_bytes", Cs_obs.Obs.Int recovery.Wal.truncated_bytes) ]
        "journal:recovered"
  end
  else if recovery.Wal.records <> [] then
    (* no --recover: the operator asked for a fresh start *)
    Wal.rewrite wal [];
  t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* A key admitted again after its done left the horizon still has its
   stale, earlier entry in [pending_order]: list each key once, at its
   last admission. *)
let pending t =
  locked t (fun () ->
      let seen = Hashtbl.create 16 in
      List.fold_left
        (fun acc key ->
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            match Hashtbl.find_opt t.table key with
            | Some (Pending req) -> (key, req) :: acc
            | _ -> acc
          end)
        [] (List.rev (List.of_seq (Queue.to_seq t.pending_order))))

let lag t = locked t (fun () -> t.pending_n)
let truncated_bytes t = t.truncated

let completed t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (Done reply) -> Some reply
      | _ -> None)

let admit t ~key req =
  let fresh =
    locked t (fun () ->
        if Hashtbl.mem t.table key then false
        else begin
          Hashtbl.replace t.table key (Pending req);
          Queue.push key t.pending_order;
          t.pending_n <- t.pending_n + 1;
          Wal.append t.wal (encode_admit ~key req);
          true
        end)
  in
  (* group commit outside the table lock: concurrent admits share one
     fsync *)
  if fresh then Wal.sync t.wal

(* Compaction: only when nothing is in flight, so the rewritten log
   needs no admit records at all — just the dedup horizon, in one
   atomic rewrite. *)
let maybe_compact_locked t =
  if t.pending_n = 0 && Wal.size_bytes t.wal > t.compact_bytes then begin
    Queue.clear t.pending_order;
    Wal.rewrite t.wal
      (Queue.fold
         (fun acc key ->
           match Hashtbl.find_opt t.table key with
           | Some (Done reply) -> encode_done ~key reply :: acc
           | _ -> acc)
         [] t.dones_order
      |> List.rev);
    Cs_obs.Obs.instant ~cat:"gateway"
      ~args:[ ("kept_dones", Cs_obs.Obs.Int t.dones_n) ]
      "journal:compacted"
  end

let mark_done t ~key reply =
  locked t (fun () ->
      if record_done_locked t ~key reply then begin
        Wal.append t.wal (encode_done ~key reply);
        maybe_compact_locked t
      end);
  Wal.sync t.wal

let close t = locked t (fun () -> Wal.close t.wal)
