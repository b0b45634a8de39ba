(** Incentive ratio of the BD Allocation Mechanism against Sybil attacks
    (paper, Definition 7).

    [ζ_v = max over splits of U'_v / U_v], and [ζ = max_v ζ_v].  One
    vocabulary serves every split: an {!attack} carries the attacker's
    identity weight vector ({!Sybil.vector}), of length
    [ctx.identities] — the paper's pairwise split at the default 2,
    Sybil strategies with more identities above.  {!best_split}
    searches one vertex and {!best_attack} all of them; the context
    chooses the search.

    Two sweep policies live behind {!Engine.Ctx.t}'s [sweep] field.
    {e Grid} is an exact-arithmetic grid sweep with recursive zoom
    refinement over the [(k−1)]-simplex ({!Sybil.lattice}), one window
    per free coordinate — [w1]'s window at two identities — so every
    reported value is an exact {e certified lower bound} of the
    supremum.  {e Exact} at two identities walks the
    decomposition's breakpoints ({!Breakpoints.exact_split_pieces}) and
    maximises the closed-form utility of each piece, returning the
    supremum itself as a quadratic surd ({!Qx.t}) with no resolution
    knobs ({!best_split_exact}); at [k ≥ 3] it runs coordinate descent
    over certified 1-D slices ({!Breakpoints.exact_slice_pieces}) and
    stops at a point no coordinate line can improve.  Theorem 8 promises
    the two-identity supremum never exceeds 2; with three identities the
    ring [7;2;9;4;3] reaches 128/63.

    Each search memoises its evaluations per distinct split, so every
    split is decomposed — and budget-ticked at cost [1 + n] — once.
    Counters (subsystem ["incentive"]): [memo_lookups] = [memo_hits] +
    [memo_misses] for the split-vector memo and
    [sweep_points]/[sweep_points_deduped] for the lattice points, at
    every identity count; [kway_rounds] and [kway_exact_events] for the
    slice-wise descent; [exact_sweep_calls], [exact_pieces],
    [exact_events], [exact_criticals] and [exact_evals] for the
    certified two-identity sweep. *)

type attack = {
  v : int;  (** the manipulative agent *)
  w1 : Rational.t;  (** [weights.(0)], the first identity's weight *)
  weights : Rational.t array;
      (** best identity weight vector found: length [ctx.identities],
          non-negative, summing to [w_v] *)
  utility : Rational.t;  (** [U'_v], summed over the identities *)
  honest : Rational.t;  (** [U_v] without deviation *)
  ratio : Rational.t;  (** [U'_v / U_v] *)
}

type exact_attack = {
  witness : attack;
      (** rational witness: the optimum itself when it is rational (then
          [witness.utility] equals [utility_exact]), otherwise the better
          of the two dyadic rationals (denominator 2⁴⁰) bracketing it *)
  w1_exact : Qx.t;  (** certified optimal identity-1 weight *)
  utility_exact : Qx.t;  (** the supremum [sup U'_v], exactly *)
  ratio_exact : Qx.t;  (** [ζ_v], exactly *)
  pieces : int;  (** structure-constant pieces of the split parameter *)
  events : int;  (** decomposition-change events among them *)
}

val best_split :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?honest:Rational.t -> Graph.t ->
  v:int -> attack
(** Best split of [v] into [ctx.identities] identities.  Solver choice,
    sweep, grid/refine, domains and cache policy come from [ctx]
    ({!Engine.Ctx.default} when absent); an explicit [budget] overrides
    the context's.  [honest] supplies an externally computed honest
    utility [U_v] (e.g. shared across vertices by {!best_attack}); when
    absent it is computed from the graph.

    Under [Grid] each free weight sweeps a [ctx.grid]-point subdivision
    of [[0, w_v]] ({!Sybil.lattice}), seeded at two identities by the
    honest point [w₁⁰] (Lemma 9: its utility is [U_v]) and above that by
    the uniform vector [w_v / k]; then it zooms [ctx.refine] times
    around the best point.  The first point of a utility tie in
    enumeration order wins.  [ctx.domains > 1] evaluates
    each round's fresh points in parallel; the result is identical to
    the sequential search.  Giving the context an {!Engine.Cache} shares
    the decompositions themselves across searches.

    Under [Exact] at two identities this returns the rational witness of
    {!best_split_exact}; at [k ≥ 3], the end point of the slice-wise
    coordinate descent.  The grid/refine knobs are ignored.
    @raise Invalid_argument under [Grid] when [ctx.grid < 2] or
    [ctx.refine < 0]. *)

val best_split_exact :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?honest:Rational.t -> Graph.t ->
  v:int -> exact_attack
(** The certified optimum of the two-identity split, whatever
    [ctx.identities] and [ctx.sweep] say: enumerate the
    structure-constant pieces of [w_{v¹}] exactly
    ({!Breakpoints.exact_split_pieces}), maximise each piece's
    closed-form utility [N/D] over its closed interval
    ({!Symbolic.maximise_piece}: endpoints plus the roots of the
    degree-≤2 derivative numerator [N'·D − N·D']) — a point piece by
    the mechanism's value there — and return the best point.  The
    result is the true supremum: [ratio_exact] is at least the [ratio]
    of {!best_split} at {e any} grid/refine setting.  The first
    candidate of a utility tie, walking pieces left to right, wins.

    Budget is ticked per sampled piece and per mechanism evaluation (the
    work is proportional to the number of events, not to a resolution);
    when the context has no {!Engine.Cache} a request-local one is used
    so the piece walk's repeated decompositions are shared. *)

val best_attack :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> attack
(** [ζ] estimate: the best {!best_split} over all vertices (first vertex
    of a ratio tie wins; under [Exact] at two identities the certified
    ratio ranks them, since two vertices whose witnesses tie can differ
    once resolved).  The honest decomposition of the unmodified ring is
    computed once and shared by every per-vertex search.
    [ctx.domains > 1] spreads the per-vertex searches over that many
    OCaml 5 domains (the result is identical to the sequential search;
    each search runs sequentially on its worker), except for small
    two-identity grid sweeps, where the fan-out would cost more than it
    saves.  A shared budget meters all domains; its [Exhausted] is
    re-raised after they join. *)

val best_attack_exact :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> Graph.t -> exact_attack
(** [ζ] exactly: {!best_split_exact} over all vertices, the winner
    selected by [ratio_exact] (first vertex of a tie wins) — the
    {!best_attack} of the context with [identities = 2] and
    [sweep = Exact], certificate included. *)

type progress = {
  best : attack option;  (** best attack over the vertices finished so far *)
  best_exact : exact_attack option;
      (** its certificate under [ctx.sweep = Exact] at two identities
          ([witness] is [best]); [None] otherwise *)
  completed : int;  (** vertices fully searched *)
  total : int;
  status : (unit, Ringshare_error.t) result;
      (** [Ok ()] when every vertex was searched; [Error (Budget_exhausted _)]
          (or another structured error) when the scan stopped early. *)
}

val best_attack_within :
  ?ctx:Engine.Ctx.t -> ?budget:Budget.t -> ?checkpoint:string ->
  ?resume:bool -> Graph.t -> progress
(** Sequential, fault-tolerant variant of {!best_attack}: vertices are
    searched in order, the best-so-far is returned even when the budget
    trips mid-scan, and an optional [checkpoint] file is atomically
    rewritten after every vertex.  With [resume:true] the scan continues
    from the snapshot; a missing checkpoint file means start from
    scratch.  A snapshot is rejected as [Invalid_input] unless it matches
    a digest of the graph, the sweep policy {e and} the identity count
    (pre-exact snapshots count as grid, pre-k-way ones as two
    identities), its next vertex lies in [0..n], and its best-so-far is
    consistent: a vertex of the graph, a weight vector of
    [ctx.identities] non-negative entries summing to [w_v], each ratio
    its utility over the honest one.
    Killing the process and resuming reproduces the uninterrupted result
    exactly — under [Exact] the certified optimum rides in the
    checkpoint as {!Qx} strings, so the resumed [best_exact] is
    bit-identical too.
    [ctx.domains > 1] parallelises each vertex's sweep {e inside}
    {!best_split} (bit-identical to the sequential sweep), so the
    checkpoint stream — one snapshot per vertex, in order — is unchanged
    by parallelism. *)

val ratio : utility:Qx.t -> honest:Rational.t -> Qx.t
(** The incentive ratio [utility / honest], with the convention for a
    zero honest utility: [0/0 = 1] and [u/0 = ∞] for [u > 0].  Every
    [ratio] and [ratio_exact] above is computed by it. *)

val ratio_of_attack : attack -> float
(** Convenience float view. *)
