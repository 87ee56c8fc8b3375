(** Interconnect models.

    [Mesh] is Raw's compiler-routed static network: register-mapped
    ports, three cycles of latency between neighboring tiles and one
    extra cycle per additional hop (paper Sec. 5). On a healthy mesh
    routes are dimension ordered (X then Y); a degraded mesh (dead
    nodes, dead links, slowed links from a fault plan) routes around
    the damage with deterministic shortest paths. Each hop occupies a
    directed link for one cycle, which the scheduler books in a
    reservation table.

    [Crossbar] is the clustered-VLIW copy network: any-to-any, fixed
    latency, bandwidth limited by each cluster's transfer unit rather
    than by links. *)

type t =
  | Mesh of {
      rows : int;
      cols : int;
      base_latency : int;
      per_hop : int;
      dead_nodes : int list;  (** sorted; these tiles route nothing *)
      dead_links : (int * int) list;  (** normalised [lo, hi], adjacent *)
      slow_links : ((int * int) * int) list;
          (** normalised link -> factor >= 2 multiplying per-hop cost *)
    }
  | Crossbar of { latency : int }

val mesh :
  rows:int ->
  cols:int ->
  ?base_latency:int ->
  ?per_hop:int ->
  ?dead_nodes:int list ->
  ?dead_links:(int * int) list ->
  ?slow_links:((int * int) * int) list ->
  unit ->
  t
(** Smart constructor: validates ranges and adjacency, normalises link
    endpoints, sorts and dedups. Defaults: [base_latency 3], [per_hop 1]
    (Raw's static network), no damage. Raises [Invalid_argument] on
    out-of-range nodes, non-adjacent links, or slow factors < 2. *)

val is_degraded : t -> bool
(** A mesh with any dead node, dead link, or slow link. *)

val coords : t -> int -> int * int
(** Mesh only: [row, col] of a node id. *)

val reachable : t -> int -> int -> bool
(** Whether any route survives between two nodes. Always [true] on a
    crossbar or healthy mesh. *)

val hops : t -> int -> int -> int
(** Number of network hops between two nodes (0 when equal; 1 for any
    distinct pair on a crossbar; Manhattan distance on a healthy mesh;
    length of the surviving shortest path on a degraded mesh). Raises
    [Cs_resil.Error.Error (Unreachable _)] when no route survives. *)

val comm_latency : t -> src:int -> dst:int -> int
(** End-to-end latency of moving a register value; 0 when [src = dst].
    On a degraded mesh this is [base + per_hop * (weight - 1)] where
    [weight] counts each slow link [factor] times. Raises
    [Cs_resil.Error.Error (Unreachable _)] when no route survives. *)

type link = { from_node : int; to_node : int }
(** A directed mesh link between adjacent tiles. *)

val route : t -> src:int -> dst:int -> link list
(** Route as a list of directed links; empty when [src = dst] or on a
    crossbar. Dimension-ordered (X then Y) on a healthy mesh;
    deterministic min-weight path avoiding dead nodes/links on a
    degraded one. Raises [Cs_resil.Error.Error (Unreachable _)] when no
    route survives. *)

val pp : Format.formatter -> t -> unit
