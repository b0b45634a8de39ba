(** Sybil attacks on arbitrary networks (paper, Definition 7 in full
    generality, and the conclusion's conjecture).

    The manipulative agent [v] splits into [m ≤ d_v] identities; each of
    [v]'s neighbours is attached to exactly one identity, and [v]'s weight
    is distributed over the identities.  Rings are the special case
    [m = 2] with the two neighbours separated ({!Sybil}).

    The paper conjectures that the incentive ratio is 2 on {e general}
    networks as well; {!best_attack} searches identity counts, neighbour
    partitions and weight splits so that experiment E11 can probe the
    conjecture empirically. *)

type spec = {
  groups : int list array;
      (** [groups.(i)] = the neighbours wired to identity [i]; a partition
          of the neighbour set into non-empty groups *)
  weights : Rational.t array;  (** identity weights, summing to [w_v] *)
}

type split = Sybil.split = {
  graph : Graph.t;  (** the post-attack network *)
  ids : int array;  (** vertex id of each identity: [ids.(0) = v], the
                        rest are fresh vertices appended after [n-1] *)
}

val apply : Graph.t -> v:int -> spec -> split
(** @raise Invalid_argument if the groups are not a partition of [v]'s
    neighbours into non-empty sets, or the weights mismatch in length or
    sum, or are negative. *)

val attack_utility : ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> spec -> Rational.t
(** Total utility of all identities under the BD allocation on the
    post-attack network. *)

val partitions : 'a list -> max_groups:int -> 'a list list list
(** All partitions of a list into at most [max_groups] non-empty groups
    (set partitions; exposed for tests and experiments). *)

val best_attack :
  ?ctx:Engine.Ctx.t -> ?grid:int -> ?max_degree:int ->
  Graph.t -> v:int -> spec * Rational.t * Rational.t
(** [(best spec found, its utility, utility / honest)] over all identity
    counts, all neighbour partitions, and the simplex lattice of weight
    splits ({!Sybil.lattice} over full windows).  [grid] is the
    {e per-dimension} resolution (default 6) — a deliberately separate
    knob from [ctx.grid], whose 32 would make the [grid^m] enumeration
    explode.
    @raise Invalid_argument when [d_v > max_degree] (default 5; the
    partition count grows as the Bell number). *)
