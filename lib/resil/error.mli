(** Typed error taxonomy for the scheduling hot path.

    Historically the scheduler escaped through ad-hoc [invalid_arg] /
    [failwith] calls, which made it impossible for a fallback chain to
    distinguish "the caller handed us garbage" from "this machine cannot
    run this program" from "two bookings collided". This module gives
    every failure mode a constructor so recovery code can catch and
    classify instead of dying. *)

type t =
  | Invalid_input of string
      (** Caller-supplied data is malformed (bad sizes, bad plan syntax,
          negative cycle, out-of-range cluster...). *)
  | Infeasible of string
      (** The program cannot be scheduled on this machine at all (no
          surviving FU can execute an opcode, a dead cluster holds a
          preplaced instruction, a dead transfer unit must send...). *)
  | Resource_conflict of string
      (** Two reservations collided on the same resource and cycle. *)
  | Unreachable of { src : int; dst : int }
      (** No route between two clusters: the fault plan partitioned the
          mesh. *)
  | Invalid_schedule of string
      (** A produced schedule failed validation. *)
  | Pass_failure of string
      (** A weight pass crashed or corrupted the weight matrix. *)
  | Pass_timeout of string
      (** A weight pass overran its per-pass time budget; its effect was
          rolled back and the pass quarantined. *)
  | Deadline_exceeded of string
      (** A request's absolute deadline expired before any fallback rung
          produced a schedule — a typed refusal, never a hang. *)
  | Overloaded of string
      (** The batch service's bounded admission queue was full and the
          job was shed instead of being queued unboundedly. *)
  | Quota_exceeded of string
      (** One tenant exhausted its fair-admission quota while the
          service as a whole still had headroom — the hot tenant is
          refused, everyone else keeps flowing. *)

exception Error of t
(** The single exception carrying typed scheduling errors. *)

val error : t -> 'a
(** [error e] raises {!Error}[ e]. *)

val invalid_input : string -> 'a
val infeasible : string -> 'a
val resource_conflict : string -> 'a
val unreachable : src:int -> dst:int -> 'a
val overloaded : string -> 'a

val kind : t -> string
(** Short stable tag, e.g. ["infeasible"]; used in telemetry/JSONL. *)

val message : t -> string
(** Human-readable payload without the kind tag. *)

val to_string : t -> string
(** ["kind: message"]. *)

val protect : (unit -> 'a) -> ('a, t) result
(** [protect f] runs [f], mapping {!Error} itself and the legacy escape
    hatches ([Invalid_argument], [Failure], [Division_by_zero],
    [Not_found]) onto the taxonomy as [Error _]. Any other exception
    ([Stack_overflow], [Out_of_memory], ...) propagates. *)
