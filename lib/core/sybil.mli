(** The Sybil attack on a ring (paper, Section II.D and III).

    The manipulative agent [v], of degree 2 on the ring, splits into
    [k ≥ 2] identities [v¹, …, v^k] whose weights sum to [w_v].  One
    shape describes every split: its weight {!vector}.  The paper's
    pairwise split [P_v(w_{v¹}, w_{v²})] is the [k = 2] vector
    [[|w1; w_v − w1|]].

    Identity conventions for the graph built by {!split}: the ring is
    cut open at [v].  [v¹] keeps [v]'s id and the edge to the
    {e smaller-id} ring neighbour [a]; the fresh vertices [n, …, n+k−2]
    are [v², …, v^k], inserted {e consecutively} as a chain hanging off
    the other neighbour [b].  The result is the path
    [v¹ — a — … — b — v² — … — v^k] — at [k = 2] the paper's
    [v¹ — u_1 — … — u_{n-1} — v²] — so every vertex keeps degree ≤ 2
    and the chain solvers still apply. *)

type vector = {
  v : int;  (** the manipulative ring vertex *)
  weights : Rational.t array;  (** identity weights, length [k ≥ 2] *)
}
(** A [k]-identity split vector: [v] splits into identities
    [v¹, …, v^k] carrying [weights.(0), …, weights.(k−1)]. *)

type split = {
  graph : Graph.t;  (** the opened ring with the identity chain *)
  ids : int array;
      (** identity vertex ids in [graph]: [ids.(0) = v] and
          [ids.(j) = n + j − 1] for [j ≥ 1], in path order *)
}

val split : Graph.t -> vector -> split
(** Materialise a split vector.
    @raise Invalid_argument if the graph is not a ring, [k < 2], any
    weight is negative, or the weights do not sum to [w_v]. *)

val split_free : Graph.t -> vector -> split
(** Like {!split} but without the [Σ weights = w_v] constraint: the
    stage analysis of Section III walks through intermediate paths —
    e.g. [P_v(w₁⁰, w₂⋆)] — whose identity weights do not sum to
    [w_v]. *)

val utility : ?ctx:Engine.Ctx.t -> Graph.t -> vector -> Rational.t
(** [Σ_j U_{v^j}] on the materialised split — the attacker's
    post-attack utility over all [k] identities, from one
    decomposition. *)

val split_utility :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> w1:Rational.t -> Rational.t
(** [U_{v¹} + U_{v²}] on [P_v(w1, w_v − w1)]: {!utility} of the
    [k = 2] vector [[|w1; w_v − w1|]]. *)

val honest_utility : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> Rational.t
(** [U_v] on the original ring (Proposition 6). *)

val initial_split :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> Rational.t * Rational.t
(** [(w₁⁰, w₂⁰)]: the amounts [v] ships to its two neighbours under the BD
    allocation on the ring (smaller-id neighbour first, matching
    {!split}).  Lemma 9: the split utility at this point equals [U_v]. *)

val lattice :
  w:Rational.t -> grid:int -> (Rational.t * Rational.t) array ->
  Rational.t array list
(** The simplex lattice of split weights: every vector of
    [Array.length windows + 1] non-negative entries summing to [w]
    whose free coordinate [i] lies on the [grid]-point subdivision of
    [windows.(i)] (clamped to [[0, w]]; a zero-width window is its one
    point).  The last entry absorbs the remainder, and lattice points
    overshooting the simplex are dropped.  The first coordinate varies
    slowest, so the order — and with it the first-of-a-tie winner of a
    search over the list — is deterministic.  No windows gives
    [[[|w|]]]. *)
