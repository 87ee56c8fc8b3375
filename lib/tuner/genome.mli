(** Genome representation for pass-sequence autotuning.

    A genome is a list of genes; a gene is a pass name plus a full
    assignment of that pass's numeric parameters. The search space is
    exactly what {!Cs_core.Sequence.of_names} can parse, so any genome
    — evolved or hand-written — can be replayed with
    [csched run -p <string>].

    All operators are validity-preserving: they only produce genomes
    that {!of_string} accepts, with length within [min_length] /
    [max_length] and every parameter inside its tuning range. *)

type gene = {
  pass : string; (** registry name, uppercase *)
  params : (string * float) list; (** full assignment, declaration order *)
}

type t = gene list

val min_length : int
val max_length : int

val gene_pool : string list
(** Pass names the tuner may insert — {!Cs_core.Sequence.available}
    minus INITTIME, which is pinned as every genome's first gene (the
    paper's sequences all start by initializing temporal preferences,
    and without it the time axis never converges). *)

val default_gene : string -> gene
(** Gene with the registry's default parameters.
    Raises [Invalid_argument] on an unknown pass. *)

val of_machine : Cs_machine.Machine.t -> t
(** The machine's Table 1 default sequence as a genome — the seed
    individual and the baseline the tuner must beat. *)

val to_passes : t -> (Cs_core.Pass.t list, string) result

val to_string : t -> string
(** Canonical form: genes joined with [","], every parameter emitted
    ([NAME=k=v:...]), floats printed with enough digits to round-trip.
    Used as the fitness-cache key; equal genomes have equal strings. *)

val of_string : string -> (t, string) result
(** Parses anything {!Cs_core.Sequence.of_names} accepts, including
    partial parameter lists (missing keys take defaults). Enforces the
    tuner's length bounds. [of_string (to_string g) = Ok g]. *)

val mutate : Cs_util.Rng.t -> t -> t
(** One of: insert a random gene (params jittered around defaults),
    delete a gene, swap two genes, or perturb one parameter of one
    gene. Respects length bounds and parameter ranges; never touches
    the leading INITTIME. *)

val crossover : Cs_util.Rng.t -> t -> t -> t
(** One-point crossover with independent cut points (so lengths can
    drift); cut points are resampled until the child's length is in
    bounds, falling back to the first parent. *)

val equal : t -> t -> bool
val compare_canonical : t -> t -> int
(** Total order on canonical strings — deterministic tie-breaking. *)

val random : ?max_mutations:int -> Cs_util.Rng.t -> Cs_machine.Machine.t -> t
(** The machine's default genome after 0..[max_mutations] (default 8)
    random {!mutate} steps — a validity-preserving sample of the pass
    sequence space centered on Table 1. Used by the differential fuzzer
    to draw randomized convergent pass sequences. *)
