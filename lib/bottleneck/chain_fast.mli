(** Maximal-minimiser oracle for chain graphs (max degree ≤ 2), and the
    one stage-cost DP every degree-≤2 computation shares.

    Every graph this paper manipulates is a ring, a Sybil path, or an
    induced subgraph of one — all disjoint unions of paths and cycles.
    On such graphs [h(α) = min_S (w(Γ(S)) − α·w(S))] is a 4-state
    dynamic program per component (state: the vertex's S-membership and
    whether its Γ-membership has already been charged), and vertex [u]
    belongs to the maximal minimiser iff forcing [u ∈ S] still achieves
    the component minimum (minimisers are closed under union).  One
    forward and one backward sweep give every forced minimum as an O(1)
    combine, so a Dinkelbach step is O(n).  Cycles are handled by
    conditioning on the memberships of the two ends of a cut edge.

    {!Make} writes that DP once over an abstract cost domain.  Its two
    instances are the exact-rational one behind this module's oracle
    and the certificate domain of [Breakpoints], which carries costs as
    quadratics in the split weight and records every comparison.  The
    int-scaled kernel of {!Chain_decompose} is the one hand-specialised
    copy. *)

val supports : Graph.t -> mask:Vset.t -> bool
(** True iff every masked vertex has in-mask degree ≤ 2. *)

type component = { verts : int array; cycle : bool }
(** A connected component of the masked subgraph, vertices in walk order
    (endpoint-to-endpoint for paths, arbitrary starting point for
    cycles). *)

val components : Graph.t -> mask:Vset.t -> component list

(** The cost domain of the DP.  [inf] marks an unreachable state and
    absorbs [add]/[sub]; [min] must keep its first argument on ties. *)
module type COST = sig
  type t

  val inf : t
  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val min : t -> t -> t
end

module Make (C : COST) : sig
  val path : gam:C.t array -> sch:C.t array -> C.t * C.t array
  (** Over a path component of [k = Array.length gam] positions, where
      [gam.(i)] is position [i]'s Γ charge and [sch.(i)] its S credit:
      [(m, forced)] with [m] the minimum of Σ_{Γ(S)} gam − Σ_S sch over
      all subsets, ∅ included, and [forced.(i)] the minimum over the
      subsets containing position [i]. *)

  val cycle : gam:C.t array -> sch:C.t array -> C.t * C.t array
  (** As {!path} for a cycle component (position [k − 1] adjacent to
      position 0, [k ≥ 3]). *)
end

val solve_path : Graph.t -> alpha:Rational.t -> int array -> Rational.t * int list
(** One DP evaluation over a path component given as its vertex sequence:
    [(h_comp(α), members)] where [members] are the vertex ids of the
    component's maximal minimiser at [α].  Mask-independent — weights are
    read straight off the graph — so the per-component decomposition
    driver ({!Chain_decompose}) reuses it as the exact-rational fallback
    when weights do not admit a small common denominator. *)

val solve_cycle : Graph.t -> alpha:Rational.t -> int array -> Rational.t * int list
(** As {!solve_path} for a cycle component ([verts] in ring order,
    length ≥ 3). *)

val h_and_argmax :
  ?budget:Budget.t -> Graph.t -> mask:Vset.t -> alpha:Rational.t ->
  Rational.t * Vset.t
(** [h(α)] and the maximal minimiser of the cost, over the masked induced
    subgraph.  [budget] is ticked per component sweep, proportionally to
    component size.
    @raise Invalid_argument if a masked vertex has in-mask degree > 2. *)

val maximal_bottleneck : ?budget:Budget.t -> Graph.t -> mask:Vset.t -> Vset.t
(** Dinkelbach iteration over this oracle.  [budget] is ticked per
    iteration and per component sweep.
    @raise Invalid_argument if the mask is empty.
    @raise Budget.Exhausted when the budget trips. *)

val maximal_bottleneck_r :
  ?budget:Budget.t -> Graph.t -> mask:Vset.t ->
  (Vset.t, Ringshare_error.t) result
(** {!maximal_bottleneck} behind {!Ringshare_error.capture}: budget
    exhaustion, oracle inconsistency and infeasible DPs come back as
    structured [Error]s. *)
