(** Deterministic, string-round-trippable hardware fault plans.

    A plan is a list of faults applied to a healthy machine by
    [Machine.degrade]. The concrete grammar (comma-separated, spaces
    ignored):

    {v
      tile=5            cluster 5 is dead (all FUs, and its mesh node)
      fu=1:0            FU 0 of cluster 1 is dead
      link=2-3          mesh link between nodes 2 and 3 is dead
      slow-link=4-8:x3  mesh link 4-8 takes 3x the per-hop latency
    v}

    Links are undirected and normalised to [lo-hi]. Parsing is strict:
    unknown keys, malformed numbers, or a slow factor < 2 are
    [Error.Invalid_input]. [to_string] of a parsed plan re-parses to the
    same plan (canonical order preserved, duplicates removed). *)

type fault =
  | Dead_tile of int
  | Dead_fu of { cluster : int; fu : int }
  | Dead_link of int * int  (** normalised: first < second *)
  | Slow_link of { a : int; b : int; factor : int }
      (** normalised: [a < b]; [factor >= 2] multiplies per-hop cost *)

type plan = fault list

val to_string : plan -> string
(** Canonical comma-separated form; [""] for the empty plan. *)

val parse : string -> (plan, string) result
(** Parse the grammar above. Whitespace around items is ignored; the
    empty string (or only whitespace) is the empty plan. Duplicate
    faults are collapsed. *)

val parse_exn : string -> plan
(** Like {!parse} but raises [Error.Error (Invalid_input _)]. *)

val is_empty : plan -> bool

type shape = {
  n_clusters : int;
  issue_width : int;  (** max FUs per cluster *)
  mesh : (int * int) option;  (** [Some (rows, cols)] for meshes *)
}
(** Just enough machine geometry to draw random faults without a
    dependency on [Cs_machine]. *)

val random : Cs_util.Rng.t -> shape:shape -> plan
(** Draw a small random plan valid for [shape]: 1-3 faults, never
    killing every cluster, links only on meshes and only between
    adjacent nodes. Deterministic in the generator state. *)
