(** Isolating the points where the bottleneck decomposition changes as one
    weight varies (paper, Section III.B: the subinterval structure
    [⟨a_i, b_i⟩] and Proposition 12's merge/split events).

    Two walks, one per parameter.  The Sybil split parameter [w1] has an
    exact walk ({!exact_split_pieces}): the split path has max degree 2,
    so every piece boundary is found exactly, as a quadratic surd.  The
    misreport line [x = w_v] of an arbitrary graph has only {!scan}, a
    grid plus exact-rational bisection that brackets each change — it
    serves graphs the exact walk cannot, such as the paper's Fig. 1. *)

type event = {
  lo : Rational.t;
  hi : Rational.t;  (** bracket around the change point *)
  before : Decompose.t;  (** decomposition at [lo] *)
  after : Decompose.t;  (** decomposition at [hi] *)
}

val scan : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> event list
(** Change events of the decomposition of [g] with [v]'s weight set to
    [x], over [x ∈ [0, w_v]], in increasing order: a grid scan finds the
    cells whose end decompositions differ and bisection narrows each
    change to a bracket [(lo, hi)] with [hi − lo ≤ w_v / 2^20].  The grid
    width comes from [ctx.grid] ({!Engine.Ctx.default_grid} when the
    context is absent).  A grid cell hiding an even number of changes
    that restore the same decomposition is reported as zero events (the
    scan sees equal endpoints); increase [grid] to separate suspected
    events. *)

val affine_of_set :
  Graph.t -> v1:int -> v2:int -> total:Rational.t -> Vset.t ->
  Rational.t * int
(** [(c, s)]: the weight of a vertex set as the affine function [c + s·x]
    of a two-vertex slice, where [v1] carries [x], [v2] carries
    [total − x] and every other vertex keeps its weight in the graph. *)

(** {1 Exact split-parameter events}

    The split path's decomposition is piecewise constant in [w1], and on
    each piece every pair weight is {e affine} in [w1] (DESIGN §16).  A
    structure observed at a rational sample therefore stays the
    decomposition exactly while finitely many degree-≤2 polynomials keep
    their sign: the structure's own shape conditions (pair weights,
    [α_i = 1], adjacent-α crossings) {e plus} the comparison differences
    of the greedy stage solves themselves — each stage's 4-state cost DP
    and its forced-vertex maximality probes, the kernel
    [Chain_fast.Make] instantiated with costs as quadratics in [w1]
    that records every comparison.  While none of those differences
    changes sign every stage re-derives the same pair, which makes the
    family complete: shape conditions alone would miss a pair splitting
    when a proper subset's ratio crosses [α_i].  Piece boundaries are
    roots of the candidates — quadratic irrationals, representable
    exactly as {!Qx.t}.  The enumeration has no grid: a cell hiding an
    even number of cancelling changes cannot fool it, and the work is
    proportional to the number of events. *)

type exact_piece = {
  xlo : Qx.t;  (** piece lower boundary (exact) *)
  xhi : Qx.t;  (** piece upper boundary (exact) *)
  sample : Rational.t;  (** rational witness with [xlo ≤ sample ≤ xhi] *)
  structure : Decompose.t;  (** the decomposition throughout the piece *)
}

type exact_event = {
  at : Qx.t;  (** exact event location *)
  left : Decompose.t;  (** structure just below [at] *)
  right : Decompose.t;  (** structure just above [at] *)
}

val exact_split_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_piece list
(** Maximal structure-constant pieces of the split parameter over
    [[0, w_v]], in increasing order, tiling the interval.  A
    non-degenerate piece's structure holds on its open interior and at
    its [sample]; a {e rational} boundary point (including [0] and
    [w_v]) whose decomposition differs from its neighbours appears as a
    degenerate piece with [xlo = xhi].  (At an irrational boundary the
    at-point decomposition is not materialised: it cannot be sampled in
    ℚ — and, by the same token, no rational scan can observe it.)
    It is {!exact_slice_pieces} on the opened ring
    ({!Sybil.split} of [[|w_v; 0|]]) with [(v1, v2) = (v, n)], so budget
    is ticked once per sampled point at the opened ring's cost [2 + n];
    decompositions use [ctx]'s solver and cache.  Empty when
    [w_v = 0]. *)

val exact_slice_pieces :
  ?ctx:Engine.Ctx.t -> Graph.t -> v1:int -> v2:int -> total:Rational.t ->
  exact_piece list
(** The same exact piece enumeration, but over a generic two-vertex
    weight {e slice} of an arbitrary acyclic degree-≤2 graph: the
    parameter [x ∈ [0, total]] sets [v1]'s weight to [x] and [v2]'s to
    [total − x] while every other weight stays fixed.
    [exact_split_pieces g ~v] is the instantiation where the graph is
    the opened ring and [(v1, v2) = (v, n)]; the k-identity coordinate
    descent ([Incentive.best_attack] with [ctx.identities ≥ 3]) uses
    this directly on the materialised {!Sybil.split} path, pairing one
    free identity with the last.
    @raise Invalid_argument when [v1]/[v2] are out of range or equal,
    [total < 0], some vertex has degree > 2, or a component is a cycle
    (the parametric stage DP is the path DP). *)

val exact_split_events :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> exact_event list
(** Boundaries between consecutive pieces of {!exact_split_pieces} whose
    structures differ, in increasing order of location. *)

val classify_event : event -> v:int -> [ `Merge | `Split | `Other ]
(** Proposition 12 view of an event, relative to the pair containing [v]:
    [`Split] — [v]'s pair at [lo] breaks in two at [hi];
    [`Merge] — two pairs at [lo] combine into [v]'s pair at [hi];
    [`Other] — any other reshaping (changes far from [v]'s pair). *)
