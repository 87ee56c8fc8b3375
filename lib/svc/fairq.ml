(* Per-tenant fair admission with two priority lanes.

   Each lane (interactive / batch) keeps a FIFO per tenant plus a
   service ring walked deficit-weighted-round-robin style: a visit
   tops a tenant's deficit up by its weight, and the tenant at the
   front of the ring pays one deficit per dequeued job — so a tenant
   with weight 2 drains twice as fast as a weight-1 tenant when both
   are backlogged, and an idle tenant accumulates nothing.

   Admission applies two independent bounds: a global capacity (a full
   queue sheds with [Overloaded]) and a per-tenant quota that binds first while the queue
   still has headroom, producing a typed [Quota_exceeded] refusal so a
   hot tenant degrades only itself.

   Lane scheduling: interactive is serviced first, except that every
   [batch_share]-th pull offers batch the front of the line — a
   bandwidth guarantee that keeps batch from starving under a flood of
   interactive traffic while interactive latency stays first-class.

   Workers block in [pull] on one condition variable, signalled once
   per admission and broadcast on [close]. *)

type lane = Interactive | Batch

let lane_name = function Interactive -> "interactive" | Batch -> "batch"

type admit_result = Admitted | Queue_full | Over_quota

type 'a tq = {
  items : 'a Queue.t;
  mutable deficit : float;
  weight : float;
}

type 'a lane_state = {
  tenants : (string, 'a tq) Hashtbl.t;
  ring : string Queue.t;  (* tenants with queued items, service order *)
}

type 'a t = {
  capacity : int;
  tenant_quota : int;
  weights : (string * int) list;
  batch_share : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  interactive : 'a lane_state;
  batch : 'a lane_state;
  counts : (string, int) Hashtbl.t;  (* queued per tenant, both lanes *)
  mutable total : int;
  mutable peak : int;
  mutable pulls : int;
  mutable closed : bool;
}

let fresh_lane () = { tenants = Hashtbl.create 8; ring = Queue.create () }

let create ?(tenant_quota = 0) ?(weights = []) ?(batch_share = 4) ~capacity ()
    =
  if capacity <= 0 then invalid_arg "Fairq.create: capacity must be positive";
  { capacity;
    tenant_quota = (if tenant_quota <= 0 then capacity else tenant_quota);
    weights;
    batch_share = max 0 batch_share;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    interactive = fresh_lane ();
    batch = fresh_lane ();
    counts = Hashtbl.create 8;
    total = 0;
    peak = 0;
    pulls = 0;
    closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let tenant_count t tenant =
  match Hashtbl.find_opt t.counts tenant with Some n -> n | None -> 0

let admit t ~tenant ~lane x =
  with_lock t (fun () ->
      if t.closed || t.total >= t.capacity then Queue_full
      else if tenant_count t tenant >= t.tenant_quota then Over_quota
      else begin
        let ls = match lane with Interactive -> t.interactive | Batch -> t.batch in
        let tq =
          match Hashtbl.find_opt ls.tenants tenant with
          | Some tq -> tq
          | None ->
            let weight =
              match List.assoc_opt tenant t.weights with
              | Some w when w > 0 -> float_of_int w
              | _ -> 1.0
            in
            let tq = { items = Queue.create (); deficit = 0.0; weight } in
            Hashtbl.replace ls.tenants tenant tq;
            tq
        in
        if Queue.is_empty tq.items then Queue.push tenant ls.ring;
        Queue.push x tq.items;
        Hashtbl.replace t.counts tenant (tenant_count t tenant + 1);
        t.total <- t.total + 1;
        if t.total > t.peak then t.peak <- t.total;
        Condition.signal t.nonempty;
        Admitted
      end)

(* One DRR step inside a lane. The front tenant pays one deficit per
   job and keeps the front while solvent (weighted burst); a broke
   tenant gets topped up by its weight and rotates to the back. *)
let pull_lane ls =
  let budget = ref ((2 * Queue.length ls.ring) + 2) in
  let rec go () =
    if Queue.is_empty ls.ring || !budget <= 0 then None
    else begin
      decr budget;
      let name = Queue.peek ls.ring in
      match Hashtbl.find_opt ls.tenants name with
      | None ->
        ignore (Queue.pop ls.ring);
        go ()
      | Some tq ->
        if Queue.is_empty tq.items then begin
          ignore (Queue.pop ls.ring);
          tq.deficit <- 0.0;
          go ()
        end
        else if tq.deficit >= 1.0 then begin
          tq.deficit <- tq.deficit -. 1.0;
          let x = Queue.pop tq.items in
          if Queue.is_empty tq.items then begin
            ignore (Queue.pop ls.ring);
            tq.deficit <- 0.0
          end;
          Some (name, x)
        end
        else begin
          tq.deficit <- tq.deficit +. tq.weight;
          ignore (Queue.pop ls.ring);
          Queue.push name ls.ring;
          go ()
        end
    end
  in
  go ()

(* Interactive first, batch every [batch_share]-th pull; a lane with
   nothing to give passes the turn to the other. Called with the lock
   held and [total > 0]. *)
let take_locked t =
  t.pulls <- t.pulls + 1;
  let prefer_batch = t.batch_share > 0 && t.pulls mod t.batch_share = 0 in
  let first, second =
    if prefer_batch then (t.batch, t.interactive) else (t.interactive, t.batch)
  in
  let tenant, x =
    match pull_lane first with
    | Some r -> r
    | None -> Option.get (pull_lane second)
  in
  let n = tenant_count t tenant - 1 in
  if n <= 0 then Hashtbl.remove t.counts tenant
  else Hashtbl.replace t.counts tenant n;
  t.total <- t.total - 1;
  x

let pull t =
  with_lock t (fun () ->
      while t.total = 0 && not t.closed do
        Condition.wait t.nonempty t.mutex
      done;
      if t.total = 0 then None else Some (take_locked t))

let length t = with_lock t (fun () -> t.total)
let peak t = with_lock t (fun () -> t.peak)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
