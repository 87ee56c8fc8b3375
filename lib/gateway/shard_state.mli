(** Per-shard gateway state: eviction, circuit breaker and warm-up ramp
    in one table.

    Two complementary trip criteria share one entry per shard:

    - {b Eviction} on {e consecutive} failures. A shard starts
      [Healthy]; each failure moves it through [Suspect] and, after
      [fail_threshold] consecutive failures, to [Dead]. Dispatch skips a
      dead shard; the prober gets one probation probe per backoff window
      ({!probe_due}). Success re-admits the shard, failure re-buries it
      one step deeper. The schedule is {!Cs_svc.Retry.delays} at 0.5 s
      base, doubling, ±25% deterministic jitter, 8 attempts, each step
      clamped to 10 s — so two gateways back off identically, and a
      returning shard is re-probed within 10 s however deep its burial.
    - {b Circuit breaker} on the failure {e rate}, which catches a shard
      that answers often enough to reset the consecutive counter while
      failing a large fraction of its calls. Every dispatch outcome
      lands in a 32-call sliding window; once it holds 8 outcomes and
      half of them failed (a transport error, or a call slower than
      30 s), the breaker opens and {!allow} refuses the shard. After a
      5 s cooldown {!allow} grants one half-open trial call: success
      closes the breaker, failure re-opens it for another cooldown.

    A re-admitted shard is cache-cold, so it warms up: {!take_warm}
    hands the warm-up replay to one caller, which starts the admission
    {!ramp} (0 → 1, linearly over 5 s).

    The module never reads the clock: every call that needs the time
    takes it as [~now] (seconds, one epoch throughout). Thread-safe:
    forwarders, the prober and heartbeat readers share one table. *)

type health =
  | Healthy
  | Suspect of int  (** consecutive failures so far, < threshold *)
  | Dead of { down_at : float; retry_at : float; attempt : int }

type breaker = Closed | Open | Half_open

val breaker_name : breaker -> string
(** ["closed" | "open" | "half-open"] — label values for metrics. *)

type transition =
  | Evicted  (** consecutive failures reached the threshold *)
  | Readmitted  (** a dead shard answered *)
  | Breaker of breaker  (** the breaker moved to this state *)

type t

val create :
  ?fail_threshold:int -> ?on_transition:(shard:string -> transition -> unit) ->
  string list -> t
(** [fail_threshold] defaults to 3 consecutive failures; raises
    [Invalid_argument] below 1. [on_transition] is called with the
    internal lock held: it must not call back into this module.
    Unknown shard names are added on first use. *)

val usable : t -> string -> bool
(** Dispatchable as far as eviction goes: [Healthy] or [Suspect]. Dead
    shards re-enter via {!probe_due} (or any successful {!note}). *)

val alive : t -> string list -> string list
(** The {!usable} subset of the given names, in the given order. *)

val allow : t -> string -> now:float -> bool
(** May the breaker let a call through? [Closed]: yes. [Open]: no,
    until the cooldown has passed — then the breaker half-opens and this
    call is the trial, which {e must} be followed by {!record}.
    [Half_open]: no, the one trial is already out. *)

val record : t -> string -> now:float -> ok:bool -> elapsed_ms:float -> unit
(** One dispatch outcome; feeds both criteria. [ok] drives eviction;
    the breaker also counts an [ok] call slower than 30 s as a
    failure. *)

val note : t -> string -> now:float -> ok:bool -> unit
(** A probe or heartbeat outcome; feeds eviction only. *)

val probe_due : t -> string -> now:float -> bool
(** True at most once per backoff window, for a [Dead] shard whose
    [retry_at] has passed: the caller owns the probation probe and must
    follow up with {!note}. *)

val take_warm : t -> string -> now:float -> bool
(** True once per re-admission: the caller performs the warm-up replay,
    and the admission ramp starts at [now]. *)

val ramp : t -> string -> now:float -> float
(** Admission-ramp position: 0 just after {!take_warm}, 1 once the
    ramp is complete (and for a shard that is not warming). *)

val health : t -> string -> health
val breaker : t -> string -> breaker

val open_count : t -> int
(** Shards whose breaker is [Open] or [Half_open]. *)
