(** The fleet-wide metric families every serving process exposes.

    One {!t} per server/gateway instance (never a process global, so
    in-process fleets in tests and benches keep separate accounting).
    The names are shared across layers on purpose: merging shard and
    gateway snapshots with {!Cs_obs.Metrics.merge_all} yields fleet
    totals per family. Layer-specific families (gateway cache, health
    transitions, ...) are registered on the same {!registry} by their
    owners. *)

type t = {
  registry : Cs_obs.Metrics.t;
  admitted : Cs_obs.Metrics.counter;  (** [csched_jobs_admitted_total] *)
  completed : Cs_obs.Metrics.counter;  (** [csched_jobs_completed_total] *)
  refused : Cs_obs.Metrics.counter;  (** [csched_jobs_refused_total] *)
  shed : Cs_obs.Metrics.counter;  (** [csched_jobs_shed_total] *)
  queue_depth : Cs_obs.Metrics.gauge;  (** [csched_queue_depth] *)
  busy : Cs_obs.Metrics.gauge;  (** [csched_workers_busy] *)
  workers : Cs_obs.Metrics.gauge;  (** [csched_workers] *)
  latency_ms : Cs_obs.Metrics.histogram;  (** [csched_job_latency_ms] *)
  queue_wait_ms : Cs_obs.Metrics.histogram;  (** [csched_queue_wait_ms] *)
  deadline : Cs_obs.Metrics.slo_window;  (** [csched_deadline] *)
  queue_depth_peak : Cs_obs.Metrics.gauge;
      (** [csched_queue_depth_peak] — high-watermark queue depth, for
          post-hoc overload forensics without live polling *)
  brownout_level : Cs_obs.Metrics.gauge;  (** [csched_brownout_level] *)
  connections_open : Cs_obs.Metrics.gauge;
      (** [csched_connections_open] — connections the listener still
          holds; a closed one is dropped at the next accept *)
}

val create : unit -> t

val tenant_counter :
  t -> tenant:string -> outcome:string -> Cs_obs.Metrics.counter
(** The [csched_tenant_jobs_total{tenant,outcome}] family ([outcome]
    in [admitted]/[completed]/[shed]/[quota]). Idempotent per label
    set — safe to call on the hot path. *)

val lane_counter : t -> lane:string -> Cs_obs.Metrics.counter
(** The [csched_lane_admitted_total{lane}] family. *)

val snapshot : t -> Cs_obs.Metrics.snapshot

val metrics_payload : t -> Proto.metrics_format -> Proto.metrics_payload
(** The answer to a [metrics] control verb, in the requested format
    (Prometheus text rendered with the registry's help strings). *)
