(** Export sinks for collected {!Obs} events.

    Two formats:

    - {b JSON Lines}: one self-contained JSON object per event, per
      line — timestamps in absolute seconds, stamped with the writing
      process's pid. Suited to ad-hoc analysis ([jq], pandas) and to
      re-reading with {!load_jsonl} for cross-process merging.
    - {b Chrome Trace Event Format}: a single JSON object
      [{"traceEvents": [...]}] loadable in [chrome://tracing] or
      Perfetto — timestamps in microseconds relative to the earliest
      event, durations attached to complete ("X") spans, counters as
      "C" events rendered as stacked series. {!chrome_merged} builds
      one document from several processes' events, one lane (pid) per
      process, named from each process's [cat = "meta"] / ["process"]
      self-announcement instant. *)

val load_jsonl : string -> ((int * Obs.event) list, string) result
(** Read a JSONL trace file written by {!write_jsonl}. Blank lines
    are skipped; the first malformed line fails the whole load with
    [path:line: reason]. *)

val jsonl : Obs.event list -> string
(** One line per event, each line a JSON object, trailing newline. *)

val chrome : Obs.event list -> string
(** The complete Chrome Trace JSON document for one process. *)

val chrome_merged : (int * Obs.event) list -> string
(** The complete Chrome Trace JSON document for events gathered from
    several processes (as loaded by {!load_jsonl}), with a
    [process_name] metadata record per pid lane. *)

val write_jsonl : string -> Obs.event list -> unit
val write_chrome : string -> Obs.event list -> unit
