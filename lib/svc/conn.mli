(** Newline-framed connections: the socket I/O shared by {!Server},
    [Cs_gateway.Gateway] and {!Client}.

    Both serving roles speak one line per message over a stream socket
    and differ only in what they do with each line. This module owns
    everything around that: framing, writes, the accept loop with one
    reader domain per connection, the close rule for connections that
    several domains answer into, and shutdown. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, retrying [EINTR]. Raises
    [Unix.Unix_error] on any other failure. *)

val read_lines : Unix.file_descr -> (string -> unit) -> (unit, Unix.error) result
(** Read until EOF, handing each line (without its ['\n']) to the
    callback in order. At EOF the unterminated tail is handed over too,
    even when empty, so the callback sees exactly
    [String.split_on_char '\n'] of the stream. [EINTR] is retried; any
    other read error returns [Error] after the complete lines, and the
    partial tail is dropped. *)

(** {1 Served connections} *)

type conn
(** An accepted connection. Replies may come from several domains, so
    writes serialize on a per-connection mutex. The socket closes on the
    later of two edges: the reader reaching EOF, and the last pending
    reply. *)

val send_line : conn -> string -> unit
(** Write one line (the ['\n'] is added). A closed connection or a
    failed write drops the line: the peer went away and there is no one
    left to tell. *)

val add_pending : conn -> unit
(** Count one more reply owed on this connection; the socket stays open
    until {!job_done} has been called as often. *)

val job_done : conn -> unit
(** The reply-side edge: one owed reply was sent (or dropped). Closes
    the socket when the reader has finished and nothing is owed. *)

val mark_persistent : conn -> unit
(** Flag a connection that never reaches EOF on its own (a shard's
    heartbeat stream): {!stop} severs it so its reader can be joined. *)

(** {1 Listeners} *)

type listener

val listen : Transport.addr -> listener
(** Bind and listen (see {!Transport.listen}). Raises
    [Unix.Unix_error] when the address is unusable. *)

val address : listener -> Transport.addr
(** The concrete bound address (TCP port 0 resolved). *)

val serve : listener -> (conn -> string -> unit) -> unit
(** Accept until {!stop}, giving each connection a reader domain that
    feeds every line to the handler (see {!read_lines}) and then marks
    the reader edge. Finished readers are joined as new connections
    arrive, and connections already closed are dropped from the list
    {!sever_all} walks. When [accept] fails for want of descriptors or
    memory ([EMFILE], [ENFILE], [ENOBUFS], [ENOMEM]) the loop pauses
    50 ms before it retries, instead of spinning. Returns once every
    reader has been joined. *)

val stopping : listener -> bool
(** Whether {!stop} has been called. *)

val stop : listener -> bool
(** Stop accepting: set the flag, sever persistent connections and wake
    a blocked [accept] with a throwaway self-connection. Safe from any
    domain or a signal handler. Returns [true] only for the call that
    did the stopping. *)

val sever_all : listener -> unit
(** [shutdown] every open connection without replying, the way a crash
    would. Readers blocked in [read] wake at once; each fd is still
    closed exactly once, by its last edge. *)

val connections : listener -> int
(** Connections accepted and not yet dropped as closed. *)

val sleep : listener -> float -> unit
(** Sleep for up to the given seconds, in ticks of at most 50 ms,
    returning early once {!stop} has been called. *)

val close : listener -> unit
(** Close the listening socket and remove a Unix socket file. *)
