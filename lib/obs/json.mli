(** Minimal JSON values: enough to serialize trace events without an
    external dependency, and to re-parse them so tests and tools can
    validate what the export sinks emit.

    Printing is RFC 8259-conformant: strings are escaped, and non-finite
    numbers (which JSON cannot represent) are emitted as [null]. A
    finite number is printed with the fewest of 12, 15 or 17
    significant digits that parse back to the same float, so every
    printed number round-trips; the parser refuses a number literal
    that overflows to infinity. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Strict parse of one JSON document (surrounding whitespace allowed);
    errors carry a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj _)] is the first binding of [key]; [None] for
    missing keys or non-objects. *)
