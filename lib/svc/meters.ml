type t = {
  registry : Cs_obs.Metrics.t;
  admitted : Cs_obs.Metrics.counter;
  completed : Cs_obs.Metrics.counter;
  refused : Cs_obs.Metrics.counter;
  shed : Cs_obs.Metrics.counter;
  queue_depth : Cs_obs.Metrics.gauge;
  busy : Cs_obs.Metrics.gauge;
  workers : Cs_obs.Metrics.gauge;
  latency_ms : Cs_obs.Metrics.histogram;
  queue_wait_ms : Cs_obs.Metrics.histogram;
  deadline : Cs_obs.Metrics.slo_window;
  queue_depth_peak : Cs_obs.Metrics.gauge;
  brownout_level : Cs_obs.Metrics.gauge;
  connections_open : Cs_obs.Metrics.gauge;
}

let create () =
  let registry = Cs_obs.Metrics.create () in
  let counter = Cs_obs.Metrics.counter registry in
  let gauge = Cs_obs.Metrics.gauge registry in
  let histogram = Cs_obs.Metrics.histogram registry in
  { registry;
    admitted = counter ~help:"Jobs accepted into the admission queue"
        "csched_jobs_admitted_total";
    completed = counter ~help:"Jobs answered with a schedule"
        "csched_jobs_completed_total";
    refused = counter ~help:"Jobs answered with a typed refusal"
        "csched_jobs_refused_total";
    shed = counter ~help:"Jobs shed by the admission queue" "csched_jobs_shed_total";
    queue_depth = gauge ~help:"Jobs waiting in the admission queue"
        "csched_queue_depth";
    busy = gauge ~help:"Workers currently executing a job" "csched_workers_busy";
    workers = gauge ~help:"Worker pool size" "csched_workers";
    latency_ms = histogram ~help:"Admission-to-reply latency (ms)"
        "csched_job_latency_ms";
    queue_wait_ms = histogram ~help:"Admission-to-dequeue wait (ms)"
        "csched_queue_wait_ms";
    deadline = Cs_obs.Metrics.slo_window registry
        ~help:"Deadline outcomes of deadline-carrying jobs" "csched_deadline";
    queue_depth_peak = gauge
        ~help:"High-watermark admission-queue depth since start"
        "csched_queue_depth_peak";
    brownout_level = gauge
        ~help:"Brownout degradation level (0 = normal service)"
        "csched_brownout_level";
    connections_open = gauge
        ~help:"Connections the listener holds (a closed one drops out at the next accept)"
        "csched_connections_open" }

(* Per-tenant admission outcomes, labelled by tenant and outcome so
   `csched top` can fold one family into a fairness table.
   Registration is idempotent: (name, labels) identity means repeated
   calls return the same underlying series. *)
let tenant_counter t ~tenant ~outcome =
  Cs_obs.Metrics.counter t.registry
    ~labels:[ ("tenant", tenant); ("outcome", outcome) ]
    ~help:"Per-tenant admission outcomes" "csched_tenant_jobs_total"

(* Per-lane admissions: interactive vs batch traffic mix. *)
let lane_counter t ~lane =
  Cs_obs.Metrics.counter t.registry
    ~labels:[ ("lane", lane) ]
    ~help:"Jobs admitted per priority lane" "csched_lane_admitted_total"

let snapshot t = Cs_obs.Metrics.snapshot t.registry

let metrics_payload t format =
  match format with
  | Proto.Metrics_json -> Proto.Snapshot (snapshot t)
  | Proto.Metrics_prometheus ->
    Proto.Prom_text
      (Cs_obs.Metrics.to_prometheus ~help:(Cs_obs.Metrics.help_of t.registry)
         (snapshot t))
