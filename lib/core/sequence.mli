(** Named pass sequences (paper Table 1) and a by-name pass registry so
    sequences — including tuned, parameterized ones — can be described
    on a command line and round-tripped losslessly.

    The textual form of one pass is [NAME] or
    [NAME=key=value:key=value:...], e.g. [LEVEL=stride=2:boost=3.5].
    Keys are the parameter names of the pass's schema (booleans
    encoded 0/1, integers exact); omitted keys keep the declared
    default. {!names} emits only non-default parameters, so default
    sequences still print as plain pass names. *)

val raw_default : unit -> Pass.t list
(** Table 1(a): INITTIME, PLACEPROP, LOAD, PLACE, PATH, PATHPROP, LEVEL,
    PATHPROP, COMM, PATHPROP, EMPHCP — the sequence used for the Raw
    machine. *)

val vliw_default : unit -> Pass.t list
(** Table 1(b) — INITTIME, NOISE, FIRST, PATH, COMM, PLACE, PLACEPROP,
    COMM, EMPHCP — with a LOAD inserted after PATH and after PLACEPROP.
    The paper selected its per-architecture pass parameters by
    trial-and-error (Sec. 4); without the two LOADs our FIRST bias
    snowballs through COMM and overloads cluster 0, and the paper's
    Fig. 8 margins over UAS/PCC do not reproduce. See DESIGN.md. *)

val registry : Pass.decl list
(** Every pass {!of_spec} knows, as its module declares it: name, kind
    and parameter schema. *)

val available : string list
(** Names accepted by {!of_names}, including the extension passes
    FEASIBLE, REGPRESS, CLUSTER (the paper's suggested clustering
    integration, Sec. 5), and the fault-injection pass CHAOS. *)

val find : string -> Pass.decl option
(** Case-insensitive lookup in {!registry}. *)

val of_name : string -> Pass.t option
(** Case-insensitive lookup with default parameters. *)

val of_spec : string -> (Pass.t, string) result
(** Parse one [NAME] or [NAME=key=value:...] token. Errors name the
    unknown pass, or the malformed, unknown or repeated parameter, or
    the value {!Pass.instantiate} refuses: non-finite, not of the
    parameter's type, or outside its declared domain. *)

val of_names : string list -> (Pass.t list, string) result
(** All-or-nothing parse of {!of_spec} tokens; the error names the
    offending token. *)

val names : Pass.t list -> string list
(** One spec token per pass, naming only its non-default parameters —
    feeding the result back through {!of_names} reconstructs the
    sequence exactly, parameters included. *)
