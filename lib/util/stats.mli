(** Small statistics helpers used by the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list. All inputs must be positive. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists of length < 2. *)

val median : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0, 100], linearly interpolated
    between closest ranks ([percentile 50.0] = {!median}); 0 on the
    empty list. The exact reference for the metrics histogram's
    quantile-accuracy test. *)

val minimum : float list -> float

val percent_change : baseline:float -> float -> float
(** [percent_change ~baseline v] is [(v - baseline) / baseline * 100]. *)

val ratio_summary : (float * float) list -> float
(** Average of [a /. b] over pairs [(a, b)] — used for "average
    improvement" numbers quoted in the paper. *)
