(** PLACEPROP — preplacement propagation (paper Sec. 4): for every
    non-preplaced instruction, divide its weight on each cluster [c] by
    the (undirected dependence-graph) distance to the closest
    instruction preplaced on [c]. Instructions near an anchor are pulled
    to the anchor's cluster; clusters with no preplaced instructions at
    all convey no information and are left untouched.

    [Weighted] mode scales by the sum of inverse-square distances to
    {e all} of a cluster's anchors instead of the nearest one: stencil
    interior nodes that sit between anchors of several banks then follow
    the majority bank instead of tying. [Nearest] is the paper's formula
    and the default. *)

type mode =
  | Nearest
  | Weighted

val decl : Pass.decl

val pass : ?mode:mode -> unit -> Pass.t
