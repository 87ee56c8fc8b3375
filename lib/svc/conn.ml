(* [single_write]: one syscall per step, so an EINTR means nothing of
   that step was written and the retry resends nothing twice. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.single_write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let chunk_size = 4096

(* Each chunk is scanned once: a line that ends inside the chunk is cut
   straight out of it, and only a line spanning chunks goes through
   [tail]. *)
let read_lines fd f =
  let chunk = Bytes.create chunk_size in
  let tail = Buffer.create 256 in
  let rec scan n start i =
    if i = n then Buffer.add_subbytes tail chunk start (n - start)
    else if Bytes.get chunk i <> '\n' then scan n start (i + 1)
    else begin
      let line =
        if Buffer.length tail = 0 then Bytes.sub_string chunk start (i - start)
        else begin
          Buffer.add_subbytes tail chunk start (i - start);
          let line = Buffer.contents tail in
          Buffer.clear tail;
          line
        end
      in
      f line;
      scan n (i + 1) (i + 1)
    end
  in
  let rec loop () =
    match Unix.read fd chunk 0 chunk_size with
    | 0 ->
      f (Buffer.contents tail);
      Ok ()
    | n ->
      scan n 0 0;
      loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (e, _, _) -> Error e
  in
  loop ()

(* --- served connections -------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutex : Mutex.t;
  mutable pending : int;
  mutable reader_done : bool;
  mutable closed : bool;
  mutable persistent : bool;
}

let locked conn f =
  Mutex.lock conn.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.mutex) f

let send_line conn line =
  locked conn (fun () ->
      if not conn.closed then
        try write_all conn.fd (line ^ "\n") with Unix.Unix_error _ -> ())

let add_pending conn = locked conn (fun () -> conn.pending <- conn.pending + 1)

(* Called with one of the two edges; the last one closes the socket. *)
let edge conn ~job_done =
  let close_now =
    locked conn (fun () ->
        if job_done then conn.pending <- conn.pending - 1
        else conn.reader_done <- true;
        let close_now = conn.reader_done && conn.pending = 0 && not conn.closed in
        if close_now then conn.closed <- true;
        close_now)
  in
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

let job_done conn = edge conn ~job_done:true

let mark_persistent conn = locked conn (fun () -> conn.persistent <- true)

(* [shutdown], not [close]: the fd is closed exactly once, by the last
   edge, after the woken reader has seen EOF. *)
let sever conn =
  locked conn (fun () ->
      if not conn.closed then
        try Unix.shutdown conn.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* --- listeners ----------------------------------------------------- *)

type listener = {
  listen_fd : Unix.file_descr;
  bound : Transport.addr;
  stop_flag : bool Atomic.t;
  conns : conn list Atomic.t;  (* written only by the accept loop *)
}

let listen addr =
  let fd = Transport.listen addr in
  { listen_fd = fd; bound = Transport.bound_addr fd addr;
    stop_flag = Atomic.make false; conns = Atomic.make [] }

let address l = l.bound
let stopping l = Atomic.get l.stop_flag

(* A connection stays listed until it closes, not until its reader
   finishes: a client that half-closes at once still awaits replies,
   and [sever_all] must still reach it. No lock, so [stop] can read the
   list from a signal handler. *)
let add_conn l conn =
  let open_ones = List.filter (fun c -> not c.closed) (Atomic.get l.conns) in
  Atomic.set l.conns (conn :: open_ones)

let connections l = List.length (Atomic.get l.conns)

let sever_all l = List.iter sever (Atomic.get l.conns)

let stop l =
  let first = not (Atomic.exchange l.stop_flag true) in
  if first then begin
    List.iter (fun c -> if c.persistent then sever c) (Atomic.get l.conns);
    (* [accept] may be blocked; a throwaway connection wakes it so it
       sees the flag. Signals also interrupt it with EINTR, but the
       self-connect works from any domain. *)
    match Transport.connect l.bound with
    | exception Unix.Unix_error _ -> ()
    | fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  end;
  first

let sleep l seconds =
  let rec go remaining =
    if remaining > 0.0 && not (stopping l) then begin
      let tick = Float.min 0.05 remaining in
      Unix.sleepf tick;
      go (remaining -. tick)
    end
  in
  go seconds

(* Out of descriptors or kernel memory, [accept] fails at once for as
   long as the backlog holds a connection; retrying without a pause
   would spin a core until some connection closes. *)
let accept_retry_s = 0.05

let serve l handle =
  (* Readers are light (parse and enqueue), so threads would do; domains
     keep the service to one concurrency primitive. *)
  let readers = ref [] in
  let prune () =
    let live, finished =
      List.partition (fun (done_flag, _) -> not (Atomic.get done_flag)) !readers
    in
    List.iter (fun (_, d) -> Domain.join d) finished;
    readers := live
  in
  let reader (conn : conn) done_flag () =
    Fun.protect
      ~finally:(fun () -> Atomic.set done_flag true)
      (fun () ->
        ignore (read_lines conn.fd (handle conn) : (unit, Unix.error) result);
        edge conn ~job_done:false)
  in
  let rec accept_loop () =
    if not (stopping l) then
      match Unix.accept l.listen_fd with
      | exception Unix.Unix_error ((EMFILE | ENFILE | ENOBUFS | ENOMEM), _, _) ->
        sleep l accept_retry_s;
        accept_loop ()
      | exception Unix.Unix_error _ -> accept_loop ()
      | fd, _ when stopping l -> (try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ ->
        Transport.accepted l.bound fd;
        let conn =
          { fd; mutex = Mutex.create (); pending = 0; reader_done = false;
            closed = false; persistent = false }
        in
        add_conn l conn;
        let done_flag = Atomic.make false in
        readers := (done_flag, Domain.spawn (reader conn done_flag)) :: !readers;
        prune ();
        accept_loop ()
  in
  accept_loop ();
  List.iter (fun (_, d) -> Domain.join d) !readers

let close l =
  (try Unix.close l.listen_fd with Unix.Unix_error _ -> ());
  Transport.cleanup l.bound
