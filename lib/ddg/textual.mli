(** A plain-text format for scheduling regions, so graphs can be fed to
    the [csched] CLI without writing OCaml:

    {v
    region dot2
    livein r10 @0          # live-in, homed on cluster 0
    const r0
    load r1 <- r0 @2       # preplaced on cluster 2
    fmul r2 <- r1 r10
    store - <- r0 r2 @2
    edge 1 4               # explicit ordering edge (memory dependence)
    liveout r2
    v}

    One instruction per line in program order; [-] marks no destination;
    [@n] is a preplacement (or live-in home); [# ...] is a comment or
    instruction tag. *)

val to_string : Region.t -> string
(** Round-trips through {!of_string}. Registers print numbered by first
    appearance (live-ins, then destinations in program order), the
    order in which {!of_string} allocates them, so
    [to_string (of_string (to_string r))] is [to_string r], and regions
    that differ only in register numbering print the same text. *)

val of_string : string -> (Region.t, string) result

val load_file : string -> (Region.t, string) result
