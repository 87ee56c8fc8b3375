(* Child processes of the built [csched] binary: spawn, learn the
   address each one bound, stop and reap it. Also this process's peak
   memory and scratch-directory removal. *)

type t = { pid : int; out : Unix.file_descr; addr : string }

(* First line the child prints on stdout, or [Error] after [timeout_s]. *)
let read_line fd ~timeout_s =
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let stop = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Ok (Buffer.sub buf 0 i)
    | None ->
      let left = stop -. Unix.gettimeofday () in
      if left <= 0.0 then Error "timed out waiting for the child's first line"
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error "child closed stdout before printing its address"
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [csched serve] and [csched gateway] announce
   "csched <cmd>: listening on ADDR (...)". *)
let address_of_banner line =
  let key = "listening on " in
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = try String.index_from line start ' ' with Not_found -> String.length line in
    Some (String.sub line start (stop - start))

let wait_exit ~timeout_s pid =
  let stop = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > stop then false
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

(* SIGTERM (a graceful drain), then SIGKILL if it has not exited within
   10 s; always reaped. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_exit ~timeout_s:10.0 p.pid) then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit ~timeout_s:30.0 p.pid)
  end;
  try Unix.close p.out with Unix.Unix_error _ -> ()

let spawn exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let p = { pid; out = r; addr = "" } in
  (* The stdout pipe stays open until [stop]: the child prints a drain
     summary on exit and must not die of a closed pipe. *)
  match read_line r ~timeout_s:30.0 with
  | Ok line -> (
    match address_of_banner line with
    | Some addr -> { p with addr }
    | None ->
      stop p;
      failwith ("unexpected banner from " ^ String.concat " " args ^ ": " ^ line))
  | Error e ->
    stop p;
    failwith (String.concat " " args ^ ": " ^ e)

(* Peak resident set (VmHWM) of this process in KiB; 0 when /proc does
   not say. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d" Fun.id
          | _ -> go ()
        in
        go ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
