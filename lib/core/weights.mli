(** The convergent-scheduling preference matrix [W(i, c, t)] (paper
    Sec. 3), stored as one contiguous instr-major float64 block:

    {v index(i, c, t) = ((i * nc) + c) * nt + t v}

    For every instruction [i], cluster [c] and time slot [t], [W(i,c,t)]
    is the scheduler's current preference for executing [i] on [c] at
    [t]. The paper's invariants hold after the driver's gate
    {!normalize_validate_touched}:

    - [0 <= W(i,c,t) <= 1]
    - for each [i], the entries sum to 1.

    Each row's cluster marginals (sums over time, per cluster) and its
    total are cached incrementally, so preferred clusters and
    confidences are O(clusters), as the paper requires. The time
    marginals (sums over clusters, per slot) are not cached: passes
    read them rarely, so {!preferred_time} sums them from the row's
    live window when asked.

    {!scale_clusters} and {!add_noise}, which sweep a row's whole
    window, also sum, in flat order, the values they leave there, and
    hand that total to the gate's next normalization of the row, which
    then skips its own total sweep; it is the same float, summed in the
    same order. Any other writer, {!blend} included, withdraws the
    total.

    Every write also marks its row {e touched}, so renormalization and
    the driver's quarantine gate run in time proportional to the rows a
    pass actually wrote (see {!is_touched} and
    {!normalize_validate_touched} below). While a pass is open,
    every write also saves its row to an undo log first, so rolling the
    pass back costs time in proportion to the rows it changed (see
    {!begin_pass}).

    The block is a [Bigarray] float64 array swept by fused unsafe
    kernels. Each fused kernel performs the same floating-point
    operations in the same order as its per-element spelling through
    {!get}/{!set}/{!scale}, so the two are bit-identical (entries,
    cached marginals and touched flags).

    {b Live windows.} Each row [i] carries a live time window
    [lo..hi], with the invariant that every entry of the row outside
    it is [+0.0] (bit for bit; a [-0.0] counts as a value). The window
    ({!Inspect.window}) over-approximates the slots that can be
    non-zero:
    - the uniform reset of a zeroed row gives the full window
      [0..nt-1];
    - {!create_windowed} gives each row its own window;
    - {!mask_time_window} intersects it with its [lo..hi];
    - {!blend} sets [dst]'s window to the hull of [dst]'s and [src]'s;
    - {!set} (so {!scale}) widens it over any value it stores that is
      not [+0.0];
    - {!add_noise} keeps it: it only raises positive entries;
    - {!rollback} restores each saved row's window, and {!copy} carries
      it along.

    The windowed kernels sweep only [lo..hi] of each cluster lane:
    {!scale_cluster}, {!scale_clusters}, {!add_noise}, the fused gate
    {!normalize_validate_touched} (both sweeps), and {!blend}. A
    non-finite factor takes the whole lane, as [inf * 0] is NaN. Every
    result (entries, caches, touched flags, exceptions, RNG
    draws) is bit-identical to a full-row sweep, since a skipped [+0.0]
    adds nothing to a sum, scales and blends to [+0.0], divides to
    [+0.0] and draws no noise. {!scale_time}, {!get} and the marginal
    readers are not windowed; {!Inspect.check_invariants} audits the
    window. *)

type t

val create_windowed : nc:int -> nt:int -> lo:int array -> hi:int array -> t
(** The only constructor. A matrix of [n = Array.length lo] rows that
    starts uniform, [v = 1 / (nc * nt)] in every entry, then has
    [mask_time_window w i ~lo:lo.(i) ~hi:hi.(i)] applied to every row
    [i] whose window leaves out a slot ([lo.(i) > 0 || hi.(i) < nt - 1]),
    then {!normalize_validate_touched} (which passes), in one write per
    entry. A row whose window spans every slot keeps [v] everywhere and
    stays untouched, so full windows everywhere ([lo.(i) = 0],
    [hi.(i) = nt - 1]) give the uniform matrix with no row touched: the
    driver's start when the sequence does not open with INITTIME. A
    masked row holds [v / total] inside its window and [+0.0] outside,
    where [total] sums [v] over the window in flat order, and is
    touched. [lo] and [hi] must have the same length. *)

val n : t -> int
val nc : t -> int
val nt : t -> int

(** {1 Element access} *)

val get : t -> int -> int -> int -> float
(** [get w i c t]. *)

val set : t -> int -> int -> int -> float -> unit
val scale : t -> int -> int -> int -> float -> unit

(** {1 Fused row kernels}

    Each is a single sweep over contiguous storage; all of them reject
    a produced value that is non-finite or negative exactly as {!set}
    does, and leave a row's touched flag unset when nothing actually
    changed (e.g. scaling by 1.0). *)

val scale_cluster : t -> int -> int -> float -> unit
(** Scale all time slots of one (instruction, cluster) — one
    contiguous lane of [nt] doubles. *)

val scale_time : t -> int -> int -> float -> unit
(** Scale all clusters of one (instruction, slot) — an [nt]-strided
    walk. *)

val scale_clusters : t -> int -> float array -> unit
(** [scale_clusters w i factors] multiplies every entry [W(i,c,t)] by
    [factors.(c)] in one row sweep; [factors] must have length [nc].
    Equivalent to [scale_cluster w i c factors.(c)] for each [c] in
    order — the shape the LOAD / COMM / FEASIBLE / PLACEPROP kernels
    reduce to. *)

val add_noise : t -> int -> Cs_util.Rng.t -> float -> unit
(** [add_noise w i rng bound] adds [Cs_util.Rng.float rng bound] to
    every positive entry of row [i], drawing in flat (cluster-major)
    order — NOISE's kernel. Entries that are not positive draw nothing
    and stay as they are. The draws are the same floats in the same
    order, but none is boxed. *)

val mask_time_window : t -> int -> lo:int -> hi:int -> unit
(** [mask_time_window w i ~lo ~hi] zeroes every slot of row [i]
    outside the inclusive window [lo..hi] — INITTIME's shape — and
    narrows the row's live window to match. Equivalent to
    [set w i c t 0.0] on every such slot (a [-0.0] there becomes
    [+0.0]), without the per-element calls. *)

(** {1 Marginals} *)

val cluster_weight : t -> int -> int -> float
(** Marginal [sum_t W(i,c,t)]; O(1) from the cache. *)

val add_cluster_marginals : t -> int -> weight:float -> into:float array -> at:int -> unit
(** [add_cluster_marginals w i ~weight ~into ~at] sets
    [into.(at + c) <- into.(at + c) +. (weight *. cluster_weight w i c)]
    for every cluster [c] in ascending order — COMM's neighbour pull,
    without a boxed float per read. A [weight] of exactly [1.0] adds
    the marginal itself. [at .. at + nc - 1] must lie in [into]. *)

val row_total : t -> int -> float
(** Cached [sum_{c,t} W(i,c,t)]; O(1). *)

(** {1 Dirty-row tracking} *)

val is_touched : t -> int -> bool
(** Whether any write has changed row [i] since the last
    {!begin_pass} (since creation, before the first). *)

(** {1 Passes and the undo log}

    The driver runs each pass between {!begin_pass} and {!commit} or
    {!rollback}. While a pass is open, every writer ({!set}, {!scale},
    the fused row kernels, {!mask_time_window}, {!blend} and the gate's
    normalization) saves a row to the undo log before it first changes
    the row: the row's live window, the entries inside it in every
    cluster lane, and its cluster sums and total. Writes made while no
    pass is open save nothing. *)

val begin_pass : t -> unit
(** Clear the touched set and open the undo log, empty. *)

val commit : t -> unit
(** Close the pass and keep its writes; costs O(rows saved). *)

val rollback : t -> unit
(** Close the pass and restore every saved row to its state at
    {!begin_pass}, bit for bit: entries (slots a write made live are
    zeroed again), caches and window. The touched flags are left as
    the pass set them. *)

(** {1 Preferences and confidence} *)

val preferred_cluster : t -> int -> int
(** Cluster maximizing the time-marginal; smallest id wins ties. *)

val refresh_preferred : t -> int array -> int
(** [refresh_preferred w prefs] sets [prefs.(i) <- preferred_cluster w i]
    for every touched row [i] (see {!is_touched}) and returns how many
    of them changed: the driver's per-pass churn, in one loop. [prefs]
    must hold at least [n w] ints. *)

val preferred_time : t -> int -> int
(** Slot maximizing the cluster-marginal; smallest slot wins ties.
    Computed from the row's live window lane by lane into a per-domain
    scratch, O(nc * width); each slot's sum adds the clusters in
    ascending order. *)

val confidence_sentinel : float
(** [1e9]. Finite stand-in for "no competition": returned (and used as
    a clamp) by {!confidence} where the ratio used to be [infinity],
    so telemetry means/percentiles over confidences never propagate
    [inf]/[nan]. *)

val confidence : t -> int -> float
(** Ratio of the top two cluster marginals (paper Sec. 3), clamped to
    [confidence_sentinel]; exactly [confidence_sentinel] when there is
    no runner-up or its weight is zero. Always finite. *)

val confidence_into : t -> int -> float array -> unit
(** [confidence_into w i into] sets [into.(i) <- confidence w i]
    without boxing the float. *)

val confidences : t -> float array -> unit
(** [confidences w into] sets [into.(i) <- confidence w i] for every
    row, boxing no float; [into] must hold at least [n w] floats. *)

val claim_order : float array -> bool array -> int array
(** [claim_order conf picked] lists the rows [i] with [picked.(i)] in
    descending [conf.(i)] under [Float.compare], ties to the lower id:
    the order in which extraction lets rows claim a cluster, and in
    which PATHPROP visits its sources. A stable radix sort on the
    floats' bits gives exactly the order of [Array.stable_sort] with
    that comparator over the ascending ids. [conf] must be at least as
    long as [picked]. *)

val blend : t -> dst:int -> src:int -> keep:float -> unit
(** [blend w ~dst ~src ~keep] sets [W(dst) <- keep * W(dst) +
    (1 - keep) * W(src)] pointwise — the paper's linear combination with
    [n = 2, i1 = j]. [keep] must be in [\[0, 1\]]; anything else,
    NaN included, raises [Invalid_argument].

    One sweep writes the row and rebuilds its cluster sums and total as
    a rebuild from the entries would: each cluster sum adds its lane
    left to right, and the total adds the cluster sums in order. It
    takes four cluster lanes per sweep, each into its own sum. It hands
    the gate no flat-order total: the row's total is withdrawn, and the
    gate's next normalization of the row sums the row once, however
    many blends wrote it. *)

(** {1 Copy and storage} *)

val copy : t -> t
(** A deep copy with the same touched flags and no open pass. *)

val release : t -> unit
(** Hand a dead matrix's storage back to the calling domain, so the
    next {!create_windowed} on the domain that fits in it reuses it
    instead of allocating a fresh [Bigarray] (every entry is
    rewritten, so the result is the same bit for bit). The domain keeps
    the larger of its spare store and this one, and never one above
    {!Inspect.store_cap}. Releasing twice is a no-op.

    The matrix must not be used after its release: its entries alias
    the next matrix built on the domain. Only code that owns the matrix
    from start to finish may release it; in this repository that is
    [Cs_sim.Pipeline], after list scheduling. {!Driver.run} never
    releases, so a matrix it returns is private to its caller. *)

(** {1 Validation} *)

val normalize_validate_touched : t -> (unit, string) result
(** The driver's per-pass gate: rescale every row written since
    {!begin_pass} (since creation, before the first), in ascending
    order, to sum to 1, rebuilding its marginal caches exactly, and
    check it: every entry finite and at least [-1e-9], the row summing
    to 1 within [1e-6]. A row that has been squashed to all zeros is
    reset to uniform over the full window. Each row costs one total
    sweep plus one divide sweep that stores every value, rebuilds the
    caches and keeps the least value stored; a row whose last writer
    handed over its total skips the first. The divide sweep decides the
    verdict from that least value and the row's rebuilt total, which
    accepts exactly the rows the check above accepts (the argument is
    in [weights.ml], at [normalize_row]); only a failing row is swept
    again, to write its message. The result is the first failing row's
    message, and every touched row is normalized even after a failure.
    Rows a pass never wrote keep their exact bits and are not checked:
    they passed the previous gate and have not changed since. *)

(** {1 Inspection}

    What tests and assertions read inside the matrix, and the one
    write they need; no pass uses it. *)
module Inspect : sig
  val window : t -> int -> int * int
  (** Row [i]'s live window [(lo, hi)]: every entry outside it is
      [+0.0]. Empty ([lo > hi]) after a mask that kept no slot. *)

  val store_cap : int
  (** [2^20] floats (8 MiB): the most storage a domain keeps for later
      matrices, and the most it keeps for later undo logs. *)

  val set_unchecked : t -> int -> int -> int -> float -> unit
  (** {!set} without its value check: stores a negative, NaN or
      infinite value as {!set} would store a valid one (undo-log save,
      caches, window, touched flag), so a test can hand the gate a row
      that no writer produces. *)

  val retained_floats : unit -> int
  (** Floats of storage the calling domain keeps for reuse: its spare
      matrix store plus its undo-log chunks. At most [2 * store_cap]. *)

  val check_invariants : t -> (unit, string) result
  (** Verifies range, row sums (post-normalization), and consistency of
      the marginal caches against freshly recomputed sums. Also audits
      each row's live window: it lies in [0..nt-1] and every entry
      outside it is [+0.0]. *)
end
