(** Fleet-wide metrics: a domain-sharded registry of counters, gauges,
    log-bucketed latency histograms, and SLO burn-rate windows.

    Design goals, in order:

    - {b Lock-free hot path.} Incrementing a counter or observing a
      histogram sample touches only per-domain atomic cells (the
      recording domain's id picks the cell), so worker domains never
      contend on a registry lock. The registry mutex is taken only to
      register a metric (cold) and to snapshot.
    - {b Mergeable snapshots.} A {!snapshot} is plain data; {!merge}
      sums counters, gauges, and histogram buckets pointwise, so
      per-shard snapshots fold into fleet totals and quantiles come
      from merged buckets — no raw-sample shipping. Every histogram
      shares one fixed log-bucket layout (an underflow bucket for
      samples [<= 1e-3], 128 buckets at 4 per octave above it, and a
      [+Inf] overflow bucket), which is what makes merging exact and
      associative.
    - {b Two expositions.} {!snapshot_to_json} round-trips through
      {!snapshot_of_json} (the [metrics] control verb's wire format);
      {!to_prometheus} renders Prometheus text exposition format
      (counters as [_total], histograms as cumulative [le] buckets).

    Metric identity is [(name, labels)]; registering the same identity
    twice returns the same underlying metric. Gauges merge by {e sum}
    (the fleet reading of [queue_depth] is the total queued), so export
    only gauges for which sum is meaningful. *)

type t
(** A registry. Each server/gateway instance owns one, so in-process
    fleets (tests, benches) keep their accounting separate. *)

val create : unit -> t

(** {2 Metric handles}

    Handles are cheap to use and safe to share across domains. Names
    follow the [csched_<layer>_<what>[_total]] scheme documented in
    DESIGN.md ("Fleet telemetry"). *)

type counter
type gauge
type histogram

type slo_window
(** Deadline accounting: monotonic hit/miss totals plus rolling
    short/long burn-rate windows (60 s and 300 s), exposed as
    [<name>_hits_total], [<name>_misses_total] and windowed
    [<name>_hits]/[<name>_misses] gauges with a [window] label. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
val slo_window : t -> ?help:string -> ?labels:(string * string) list -> string -> slo_window
(** Register (or fetch) a metric. Raises [Invalid_argument] if the
    same [(name, labels)] is already registered as a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one sample (latencies are in milliseconds by convention).
    Non-finite and negative samples clamp into the underflow bucket. *)

val record_deadline : slo_window -> hit:bool -> unit

(** {2 Snapshots} *)

type key = { name : string; labels : (string * string) list }

type histo = { counts : int array; (** per-bucket, non-cumulative *) sum : float }

type entry = Counter_v of int | Gauge_v of float | Histo_v of histo

type snapshot = (key * entry) list
(** Registration-ordered. An {!slo_window} expands into its component
    counters and gauges. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum by [key]; keys present in only one side pass
    through. Associative and commutative up to ordering (left operand's
    order wins, new keys append). *)

val merge_all : snapshot list -> snapshot

val total : histo -> int
(** Total sample count of a histogram snapshot. *)

val quantile : histo -> float -> float
(** [quantile h p] for [p] in [[0, 100]]: the estimated [p]th
    percentile, linearly interpolated inside the owning bucket. [0.]
    on an empty histogram. Accuracy is bounded by the bucket width
    (≤ ~19% relative, typically much better on dense data). *)

val find : snapshot -> ?labels:(string * string) list -> string -> entry option
(** First entry matching [name] (and exactly [labels], when given). *)

val fold_name :
  snapshot -> string -> init:'a -> f:('a -> key -> entry -> 'a) -> 'a
(** Fold over every entry named [name], across all label sets. *)

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> (snapshot, string) result

val to_prometheus : ?help:(string -> string option) -> snapshot -> string
(** Prometheus text exposition format (version 0.0.4): one [# TYPE]
    line per metric family, histograms rendered as cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count]. *)

val help_of : t -> string -> string option
(** The [?help] string a metric family was registered with, for
    {!to_prometheus}. *)
