(* Connect, run [f fd], always close. *)
let with_conn ?timeout_s addr f =
  match Transport.connect addr with
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Printf.sprintf "connect %s: %s (%s)" (Transport.to_string addr)
         (Unix.error_message e) fn)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Option.iter (fun t -> Unix.setsockopt_float fd SO_RCVTIMEO t) timeout_s;
        f fd)

(* Send every line, then half-close the write side so the server sees
   EOF. *)
let send_lines fd lines =
  match
    List.iter (fun line -> Conn.write_all fd (line ^ "\n")) lines;
    Unix.shutdown fd SHUTDOWN_SEND
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "send: %s" (Unix.error_message e))
  | () -> Ok ()

(* Read replies until the server closes, feeding the non-blank ones to
   [handle_line]. *)
let read_replies fd handle_line =
  match
    Conn.read_lines fd (fun line ->
        let line = String.trim line in
        if line <> "" then handle_line line)
  with
  | Ok () -> Ok ()
  | Error (EAGAIN | EWOULDBLOCK) -> Error "timed out waiting for replies"
  | Error e -> Error (Printf.sprintf "recv: %s" (Unix.error_message e))

let ( let* ) = Result.bind

(* Batch submit: pipeline every request, half-close, then read replies
   until the server closes — which it does only after answering every
   request. Replies arrive in completion order, not submission order;
   match them by id. *)
let submit ?timeout_s ?on_reply ~addr requests =
  with_conn ?timeout_s addr (fun fd ->
      let* () = send_lines fd (List.map Proto.request_to_line requests) in
      let replies = ref [] in
      let bad = ref None in
      let* () =
        read_replies fd (fun line ->
            match Proto.reply_of_line line with
            | Ok reply ->
              Option.iter (fun f -> f reply) on_reply;
              replies := reply :: !replies
            | Error e -> if !bad = None then bad := Some e)
      in
      match !bad with
      | Some e -> Error (Printf.sprintf "bad reply line: %s" e)
      | None -> Ok (List.rev !replies))

(* One control round trip against a serve or gateway socket: one line
   out, and the first answer back, parsed. *)
let control ~timeout_s ~addr ~none line parse =
  with_conn ~timeout_s addr (fun fd ->
      let* () = send_lines fd [ line ] in
      let result = ref (Error none) in
      let* () =
        read_replies fd (fun line ->
            if Result.is_error !result then result := Result.map snd (parse line))
      in
      !result)

let fetch_stats ?(timeout_s = 5.0) ~addr () =
  control ~timeout_s ~addr ~none:"no pong before EOF" (Proto.stats_line ())
    Proto.pong_of_line

let fetch_metrics ?(timeout_s = 5.0) ?(format = Proto.Metrics_json) ~addr () =
  control ~timeout_s ~addr ~none:"no metrics reply before EOF"
    (Proto.metrics_line ~format ()) Proto.metrics_reply_of_line
