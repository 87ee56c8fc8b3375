(** A convergent-scheduling pass: an independent heuristic that reads
    the context and edits the preference matrix (paper Sec. 2). Passes
    never communicate except through the matrix. The driver normalizes
    after every pass, so passes may leave rows unnormalized. *)

type kind =
  | Space (** edits cluster preferences — tracked by Figs. 7/9 *)
  | Time (** edits only temporal preferences *)
  | Spacetime

(** {1 Parameter schema}

    Each parameterised pass declares every parameter once, as a
    {!param}: its type, default, valid domain and tuning range. The
    parser ([Sequence.of_spec], and through it the wire), the typed
    constructors ([Level.pass ~stride ()]) and the autotuner all read
    that one declaration. *)

type typ = Bool | Int | Float

type param = {
  key : string;
  typ : typ;
  default : float;  (** booleans 0/1, integers exact *)
  domain : float * float;
  (** inclusive bounds of every value the pass accepts. Values inside
      it never make the pass break the weight matrix's contract
      (finite, non-negative, preplaced rows keep their home mass). *)
  tune : float * float;
  (** inclusive bounds the autotuner searches; inside [domain] *)
  log_scale : bool;  (** the tuner perturbs by decades, not proportionally *)
}

type decl = {
  name : string;
  kind : kind;
  params : param list;  (** declaration order *)
  build : (string * float) list -> Context.t -> Weights.t -> unit;
  (** the pass body for a full, checked assignment *)
}

type t = {
  name : string;
  kind : kind;
  params : (string * float) list;
  (** the numeric parameters this instance was built with: every
      parameter of its {!decl}, in declaration order. Booleans are
      encoded 0/1, integers exactly. [Sequence.names] uses these to
      serialize a tuned pass so it can be replayed from the command
      line. *)
  apply : Context.t -> Weights.t -> unit;
}

val make : name:string -> kind:kind -> (Context.t -> Weights.t -> unit) -> t
(** A pass without parameters (custom and test passes). *)

val param : t -> string -> float option

(** {1 Declaring parameters} *)

val bool : string -> default:bool -> param
(** Domain and tuning range [\[0, 1\]]; the tuner flips it. *)

val int : string -> default:int -> domain:int * int -> tune:int * int -> param

val float :
  ?log_scale:bool -> string -> default:float -> domain:float * float ->
  tune:float * float -> param

val factor_max : float
(** [1e6], the cap on every multiplicative parameter: a pass may move a
    weight ratio by six decades at most, so no single write overflows a
    row's sum, and a sequence needs about fifty such writes to push a
    positive weight toward the smallest normal float. *)

val factor_domain : float * float
(** [\[1e-6, factor_max\]], the domain of a multiplicative parameter that
    must stay positive: one that may scale a preplaced row's home
    cluster, where a zero would erase the row's home mass. *)

val confidence_domain : float * float
(** [\[1, max_float\]], the domain of a confidence threshold. A threshold
    is only compared with {!Weights.confidence}, which is at least 1, so
    any finite value from 1 up is safe; above
    {!Weights.confidence_sentinel} no row counts as confident. *)

val int_cap : int
(** [2^30], the upper bound of integer parameters with no natural one
    (a LEVEL stride past a region's depth acts like its depth). *)

(** {1 Declarations} *)

val declare :
  name:string -> kind:kind -> param list ->
  ((string * float) list -> Context.t -> Weights.t -> unit) -> decl

val get : (string * float) list -> param -> float
(** [p]'s value in a full assignment, as {!decl.build} receives it. *)

val get_int : (string * float) list -> param -> int
val get_bool : (string * float) list -> param -> bool

val defaults : decl -> (string * float) list

val instantiate : decl -> (string * float) list -> (t, string) result
(** Build a pass from [(key, value)] pairs; omitted keys take their
    defaults. Refuses an unknown key, a key given twice, and a value
    that is not finite, not of its parameter's type (an integer, or 0
    or 1 for a boolean) or outside its domain; the error names the
    pass, the key and the rule. A [-0.] is stored as [+0.]. *)

val set : param -> float option -> (string * float) option
val set_int : param -> int option -> (string * float) option
val set_bool : param -> bool option -> (string * float) option

val build : decl -> (string * float) option list -> t
(** {!instantiate} with the [Some] overrides, for a pass module's typed
    constructor; raises [Invalid_argument] with {!instantiate}'s error. *)
