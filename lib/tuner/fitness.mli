(** Fitness evaluation for the autotuner: geomean speedup of a pass
    sequence over a workload suite, evaluated through the real
    {!Cs_sim.Pipeline} (schedules are validator-checked, so fitness
    can't be gamed by illegal schedules — a candidate whose pipeline
    raises scores 0).

    Evaluation is batched: duplicates within a batch and across
    generations are served from a memoized cache keyed by the genome's
    canonical string, and cache misses fan out over OCaml 5 [Domain]s
    with a chunked work queue. Results are written by index, so the
    returned fitnesses — and everything the GA derives from them — are
    independent of the domain count. *)

type t

val make :
  ?scale:int -> ?seed:int -> machine:Cs_machine.Machine.t ->
  Cs_workloads.Suite.entry list -> t
(** Pre-generates every benchmark region (shared read-only across
    domains; regions are immutable once built) and the single-cluster
    baseline cycles that speedups are measured against — the same
    baseline as {!Cs_sim.Speedup}. [seed] seeds the pipeline so fitness
    is deterministic. *)

val machine : t -> Cs_machine.Machine.t
val n_cases : t -> int

val evaluations : t -> int
(** Number of genomes actually simulated (cache misses) so far. *)

val cache_hits : t -> int
(** Number of genome lookups served from the cache. *)

val eval : ?domains:int -> t -> Genome.t list -> float array
(** Fitness of each genome, in order. [domains] (default 1) caps the
    worker domains spawned for the cache-miss batch. *)
