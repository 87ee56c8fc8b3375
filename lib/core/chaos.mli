(** CHAOS — a deliberately misbehaving pass for fault-injection tests
    and fuzzing. Never part of a default or tuned sequence; it exists to
    exercise the driver's pass quarantine. Modes ([mode] parameter,
    default 4):

    - [0] writes NaN into the matrix (raises inside the pass)
    - [1] writes a negative weight (raises inside the pass)
    - [2] squashes every row to zero (soft: normalization recovers)
    - [3] clobbers preplaced rows' home-cluster weights (invariant
      violation detected after the pass)
    - [4] raises [Failure] outright
    - [5] burns [delay_ms] of wall clock without touching the matrix —
      the slow-pass mode used to exercise the driver's per-pass time
      budget ([Pass_timeout] quarantine) and service deadlines

    Other modes are outside the parameter's domain. *)

val decl : Pass.decl

val pass : ?mode:int -> ?delay_ms:float -> unit -> Pass.t

val slow_pass : ?delay_ms:float -> unit -> Pass.t
(** [pass ~mode:5 ~delay_ms ()]; [delay_ms] defaults to 100. *)
