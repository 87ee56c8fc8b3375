(** The batch scheduling service: a socket server (Unix-domain or TCP,
    see {!Transport}) running {!Job}s on a [Domain] worker pool behind a
    fair, bounded admission stage.

    Robustness contract:

    - every request read from a client gets exactly one reply — a
      schedule, a typed refusal, [Overloaded] when admission sheds it,
      or [Quota_exceeded] when only its tenant is over budget; the
      server never queues unboundedly and never leaves a client
      hanging;
    - control lines (ping / stats, see {!Proto.incoming}) are answered
      inline, bypassing the queue, so health probes get through even
      under overload; job replies piggyback the live queue depth for
      load-aware dispatchers;
    - per-job deadlines are absolute from admission; expired jobs
      refuse instead of running, live ones thread the deadline into the
      anytime driver;
    - admitted jobs flow through per-tenant deficit-weighted
      round-robin queues ({!Fairq}) in two priority lanes (interactive
      ahead of batch, batch guaranteed a share); each worker pulls one
      job at a time and runs it whole, so a reply carries the same
      schedule as an in-process run of the same region, whatever its
      size;
    - when configured with a {!Brownout} controller, rising queue-wait
      burn progressively tightens effective pass budgets (anytime
      best-so-far) before anything is shed, and recovers hysteretically;
    - {!stop} drains gracefully: no new connections, every admitted job
      is answered, workers are joined, a Unix socket file is removed;
    - {!abort} simulates a crash for chaos drills: connections are
      severed without replies and queued work is discarded. *)

type config = {
  listen_addr : Transport.addr;
  workers : int;  (** worker domains executing jobs *)
  queue_capacity : int;  (** admission queue bound; overflow sheds *)
  default_deadline_ms : float option;  (** applied when a job carries none *)
  pass_budget_s : float option;  (** per-pass budget inside the driver *)
  chaos_slow_ms : float option;
      (** inject a CHAOS slow pass of this many ms into every convergent
          job — the latency-SLO drill switch *)
  retry : Retry.policy option;  (** retry transient job failures *)
  heartbeat_addr : Transport.addr option;
      (** push {!Proto.heartbeat} lines to this gateway address *)
  heartbeat_period_s : float;  (** finite and [> 0] *)
  advertise : string option;
      (** shard name carried on heartbeats — must match the address the
          gateway was configured with; defaults to the bound address *)
  tenant_quota : int;
      (** max queued jobs per tenant; [<= 0] means no bound tighter
          than [queue_capacity] *)
  tenant_weights : (string * int) list;
      (** DRR weights for named tenants (default weight 1) *)
  batch_share : int;
      (** the batch lane is guaranteed one admission pull in this many
          (default 4); [0] starves batch under interactive pressure *)
  brownout : Brownout.settings option;  (** [None] = no degradation *)
}

val config :
  ?workers:int -> ?queue_capacity:int -> ?default_deadline_ms:float ->
  ?pass_budget_s:float -> ?chaos_slow_ms:float -> ?retry:Retry.policy ->
  ?heartbeat:string -> ?heartbeat_period_s:float -> ?advertise:string ->
  ?tenant_quota:int ->
  ?tenant_weights:(string * int) list -> ?batch_share:int ->
  ?brownout:Brownout.settings -> string -> config
(** [config addr] with 2 workers, a 16-job queue, no deadlines, no
    chaos, no retry, no heartbeats ([heartbeat_period_s] defaults to
    1 s), no tenant quota and no brownout. [addr]
    uses the {!Transport} grammar ([host:port] for TCP, otherwise a
    Unix socket path). Raises [Invalid_argument] when [addr] parses to
    neither, when [heartbeat_period_s] is not finite and [> 0], or when
    [pass_budget_s] or [default_deadline_ms] is not finite and [>= 0]. *)

type stats = {
  admitted : int;
  completed : int;  (** replies carrying a schedule *)
  shed : int;  (** [Overloaded] refusals from the admission queue *)
  refused : int;  (** worker-side refusals, parse errors and quota *)
  quota_refused : int;  (** [Quota_exceeded] refusals at admission *)
}

type t

val create : config -> t
(** Bind and listen (an existing Unix socket file is replaced; TCP
    listeners set [SO_REUSEADDR]). Raises [Unix.Unix_error] when the
    address is unusable and [Invalid_argument] on a non-positive worker
    count. *)

val address : t -> Transport.addr
(** The concrete listening address — for TCP port 0, the actual
    kernel-assigned port, so in-process tests can serve on an ephemeral
    port. *)

val run : t -> unit
(** Accept and serve until {!stop}, then drain and tear down. Blocks;
    run it on the main thread with {!stop} wired to SIGTERM/SIGINT, or
    in a background thread for in-process tests. *)

val stop : t -> unit
(** Request graceful shutdown from any thread, domain, or signal
    handler. Idempotent; wakes a blocked accept via a throwaway
    self-connection. *)

val abort : t -> unit
(** Crash the server from the clients' point of view: sever every open
    connection without replying (like a SIGKILL would), discard queued
    jobs, and tear down. In-flight requests are lost — which is the
    point: failover layers above must detect and replay them. The
    chaos-drill counterpart of {!stop}. Idempotent. *)

val stats : t -> stats

val server_stats : t -> Proto.server_stats
(** The live counters served by the stats control verb. [extra]
    carries the admission series: [quota_refused], [queue_depth_peak]
    and (when configured) [brownout_level]. *)

val meters : t -> Meters.t
(** This instance's metrics registry (also served by the [metrics]
    control verb): job counters, latency/queue-wait histograms, and
    the [csched_deadline] SLO window. *)
