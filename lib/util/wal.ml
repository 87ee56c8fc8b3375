(* Append-only write-ahead log in one file, [wal-000000.log]. Records
   are framed [magic | u32 length | u32 crc32 | payload]. The file
   changes in two ways only: an append followed by an fsync, and an
   atomic replace through [Fsio.write_atomic]. A crash mid-append leaves
   a torn record only at the tail, and the recovery scan rewrites the
   file without it. fsyncs are group-committed: every append buffers,
   and one flusher at a time writes the whole batch and fsyncs once for
   everyone waiting. *)

let magic = "CSW1"
let header_bytes = 12
let file_name = "wal-000000.log"

(* --- CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven ------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- framing -------------------------------------------------------- *)

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  Bytes.set_int32_le b 8 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(* Parse records out of the log's bytes. Returns the intact payloads
   and the offset of the first tear ([None] when the whole file
   parses). *)
let scan data =
  let len = String.length data in
  let records = ref [] in
  let rec go off =
    if off = len then None
    else if len - off < header_bytes then Some off
    else if String.sub data off 4 <> magic then Some off
    else
      let reclen =
        Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string data) (off + 4))
      in
      let crc =
        Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string data) (off + 8))
        land 0xFFFFFFFF
      in
      if reclen < 0 || off + header_bytes + reclen > len then Some off
      else
        let payload = String.sub data (off + header_bytes) reclen in
        if crc32 payload <> crc then Some off
        else begin
          records := payload :: !records;
          go (off + header_bytes + reclen)
        end
  in
  let tear = go 0 in
  (List.rev !records, tear)

(* --- log handle ----------------------------------------------------- *)

type t = {
  path : string;
  mutex : Mutex.t;
  cond : Condition.t;
  buf : Buffer.t;  (* encoded records awaiting flush *)
  mutable appended : int;  (* generation of the last buffered record *)
  mutable synced : int;  (* generation made durable *)
  mutable flushing : bool;
  mutable fd : Unix.file_descr;  (* the log file, O_APPEND *)
  mutable size : int;  (* durable bytes in the file *)
  mutable closed : bool;
}

type recovery = {
  records : string list;
  truncated_bytes : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

(* Atomically replace the file with exactly [records] and open it for
   appends: the only way the file changes other than by an append. *)
let replace path records =
  let data = String.concat "" (List.map encode records) in
  Fsio.write_atomic ~path data;
  (open_append path, String.length data)

(* A rotated log from an older build kept its later records in
   [wal-000001.log] onwards; reading only the first file would drop
   them silently. *)
let refuse_segments dir =
  Array.iter
    (fun name ->
      if
        name <> file_name
        && String.starts_with ~prefix:"wal-" name
        && Filename.check_suffix name ".log"
      then
        failwith
          (Printf.sprintf
             "Wal.open_dir: %s is a later segment of a rotated log; refusing \
              to drop its records"
             (Filename.concat dir name)))
    (Sys.readdir dir)

let open_dir ~dir () =
  mkdir_p dir;
  refuse_segments dir;
  let path = Filename.concat dir file_name in
  let data = Fsio.read_opt path in
  let records, tear = scan (Option.value data ~default:"") in
  (* The log is only trustworthy up to its first bad record: a torn
     tail, or corruption followed by good records, is cut there. *)
  let fd, size, truncated_bytes =
    match (data, tear) with
    | Some data, None -> (open_append path, String.length data, 0)
    | None, _ ->
      let fd, size = replace path records in
      (fd, size, 0)
    | Some data, Some off ->
      let fd, size = replace path records in
      (fd, size, String.length data - off)
  in
  ( { path; mutex = Mutex.create (); cond = Condition.create ();
      buf = Buffer.create 4096; appended = 0; synced = 0; flushing = false;
      fd; size; closed = false },
    { records; truncated_bytes } )

let append t payload =
  locked t (fun () ->
      if t.closed then invalid_arg "Wal.append: log is closed";
      Buffer.add_string t.buf (encode payload);
      t.appended <- t.appended + 1)

let sync t =
  Mutex.lock t.mutex;
  let target = t.appended in
  let rec wait () =
    if t.synced >= target then Mutex.unlock t.mutex
    else if t.flushing then begin
      (* someone else's flush will cover us, or wake us to take over *)
      Condition.wait t.cond t.mutex;
      wait ()
    end
    else begin
      t.flushing <- true;
      let data = Buffer.contents t.buf in
      Buffer.clear t.buf;
      let gen = t.appended in
      let fd = t.fd in
      Mutex.unlock t.mutex;
      (* the batched write + single fsync, outside the lock *)
      (match
         Fsio.write_all fd data;
         Unix.fsync fd
       with
      | () ->
        (* re-enter [wait] with the lock held — it owns the unlock *)
        Mutex.lock t.mutex;
        t.size <- t.size + String.length data;
        t.synced <- gen;
        t.flushing <- false;
        Condition.broadcast t.cond
      | exception e ->
        Mutex.lock t.mutex;
        t.flushing <- false;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        raise e);
      wait ()
    end
  in
  wait ()

let append_sync t payload =
  append t payload;
  sync t

let size_bytes t = locked t (fun () -> t.size)

(* Wait out the flush in progress, if any, with the lock held. *)
let quiesce_locked t =
  while t.flushing do
    Condition.wait t.cond t.mutex
  done

let rewrite t records =
  locked t (fun () ->
      quiesce_locked t;
      if t.closed then invalid_arg "Wal.rewrite: log is closed";
      let fd, size = replace t.path records in
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      t.fd <- fd;
      t.size <- size;
      (* the new file is durable, and it stands for everything
         appended so far: unblock their syncs only now *)
      Buffer.clear t.buf;
      t.synced <- t.appended;
      Condition.broadcast t.cond)

let close t =
  sync t;
  locked t (fun () ->
      quiesce_locked t;
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
