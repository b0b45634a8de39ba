(** Symbolic per-instance verification of Theorem 8.

    Sampled attack searches certify lower bounds; this module certifies
    the {e upper} bound.  {!Breakpoints.exact_split_pieces} tiles the
    split parameter [w1 ∈ [0, w_v]] into structure-constant pieces with
    exact ({!Qx.t}) boundaries.  On every piece the attacker's utility
    is an explicit rational function

    [U(w1) = U_{v¹} + U_{v²} = N(w1) / D(w1)]

    with [deg N ≤ 3], [deg D ≤ 2] (each identity contributes [w1·α] or
    [w1/α] with [α] a ratio of weight sums that are {e linear} in [w1]),
    and the derivative numerator [N'·D − N·D'] has degree ≤ 2 (DESIGN
    §16).  The piece's maximum is therefore attained at an endpoint or
    at a root of that quadratic, and {!maximise_piece} evaluates it
    exactly.  The claim [U ≤ 2·U_v] on the piece is the comparison of
    that exact maximum with [2·U_v].  The pieces cover [[0, w_v]] with
    no gaps, so the result is a machine-checked proof of [ζ_v ≤ 2] — not
    a sample-based estimate. *)

type interval = {
  lo : Qx.t;
  hi : Qx.t;  (** the piece's exact bounds; [lo = hi] for a point piece *)
  num : Poly.t;  (** N: utility numerator on the piece *)
  den : Poly.t;  (** D: utility denominator (positive inside) *)
  bound_holds : bool;  (** [best_here ≤ 2·U_v], decided exactly *)
  best_here : Qx.t;  (** the exact maximum of [N/D] over [[lo, hi]] *)
}

type report = {
  v : int;
  honest : Rational.t;  (** U_v *)
  intervals : interval list;
      (** one per piece of {!Breakpoints.exact_split_pieces}, in order,
          tiling [[0, w_v]]; empty when [w_v = 0] *)
  certified : bool;  (** every interval's bound proved *)
  best_found : Qx.t;
      (** the exact supremum of the attack utility: the largest
          [best_here], or [U_v] when [w_v = 0] *)
}

val slice_utility_function :
  Graph.t -> v1:int -> v2:int -> total:Rational.t ->
  structure:Decompose.t -> ids:int array -> Poly.t * Poly.t
(** [(N, D)] such that [Σ_j U_{ids.(j)} = N(x)/D(x)] while the
    decomposition stays [structure], where [v1] carries [x], [v2]
    carries [total − x] and every other vertex keeps its weight from the
    given graph.  For the two-identity split pass the ring itself with
    [v1 = v], [v2 = n] and [ids = [|v; n|]]; with more identities pass
    the {e materialised} split path ({!Sybil.split.graph}), where the
    fixed identities' weights are readable. *)

val derivative_numerator : Poly.t * Poly.t -> Poly.t
(** [N'·D − N·D'] for [(N, D)]: its roots are the critical points of
    [N/D]. *)

type piece_max = {
  arg : Qx.t;  (** where the maximum is attained *)
  value : Qx.t;  (** the maximum *)
  evals : int;  (** closed-form evaluations made *)
  criticals : int;  (** derivative roots inside the piece *)
}

val maximise_piece : Poly.t * Poly.t -> Breakpoints.exact_piece -> piece_max
(** The exact maximum of [N/D] over a non-degenerate piece's closed
    interval.  Candidates are evaluated in {!Qx} in a fixed order:
    [xlo], the roots of {!derivative_numerator} in [(xlo, xhi)], [xhi],
    then the rational [sample]; an endpoint where [D] vanishes is
    skipped.  The first candidate of a tie wins.
    @raise Invalid_argument when the derivative numerator has degree
    above 2. *)

val verify_theorem8 :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> (report, string) result
(** Walk the exact pieces, build each piece's rational function,
    cross-check it against the mechanism at the piece's sample (exact
    equality), and decide the bound on every piece from its exact
    maximum; a point piece is judged by the mechanism's value there.
    [Error] means a cross-check failed — a bug, not a disproof — so a
    [certified] report always rests on closed forms that matched the
    mechanism.  Solver and cache come from [ctx]; no grid is involved. *)
