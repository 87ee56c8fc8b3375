(* Crash-safe file writes: write to a sibling temp file, fsync it, then
   rename over the destination. POSIX rename is atomic within a
   filesystem, so readers — and a process restarted after SIGKILL —
   observe either the previous complete file or the new complete file,
   never a truncated mixture. The fsync before the rename closes the
   window where the rename is durable but the data is not. *)

let temp_path path =
  Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

(* A crash between creating the temp file and renaming it leaves an
   orphan [path.tmp.<pid>] behind. The next writer to the same target
   sweeps them: temp names embed the writer's pid, so anything with a
   different pid is either a dead writer's leftover or a concurrent
   writer we'd race with anyway (last rename wins either way). *)
let sweep_orphans path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  let plen = String.length prefix in
  let own = Filename.basename (temp_path path) in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        if
          String.length name > plen
          && String.sub name 0 plen = prefix
          && name <> own
          && String.for_all
               (fun c -> c >= '0' && c <= '9')
               (String.sub name plen (String.length name - plen))
        then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      entries

(* fsync the directory so the rename itself (the name -> inode edge)
   survives a crash, not just the file contents. Best effort: some
   filesystems refuse to fsync a directory fd. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_all fd s =
  let rec go pos len =
    if len > 0 then begin
      let n = Unix.write_substring fd s pos len in
      go (pos + n) (len - n)
    end
  in
  go 0 (String.length s)

let write_atomic ~path content =
  sweep_orphans path;
  let tmp = temp_path path in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match
     write_all fd content;
     Unix.fsync fd
   with
  | () -> Unix.close fd
  | exception e ->
    (try Unix.close fd with _ -> ());
    (try Sys.remove tmp with _ -> ());
    raise e);
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with _ -> ());
     raise e);
  fsync_dir (Filename.dirname path)

let read_opt path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None
