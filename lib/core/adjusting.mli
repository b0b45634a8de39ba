(** The paper's Adjusting Technique (Section III.C).

    When both identities sit in the same bottleneck pair on
    [P_v(w₁⁰, w₂⁰)], shifting weight from [v²] to [v¹] along
    [(w₁⁰ + z, w₂⁰ − z)] keeps the decomposition — and hence the
    attacker's total utility — unchanged, up to a critical [z] where the
    pair splits in two.  The proof replaces the initial path by the path at
    the critical point; this module reads that point off the exact piece
    list of the split parameter ({!Breakpoints.exact_split_pieces}): it
    is the upper end of the piece holding [w₁]. *)

type result = {
  z : Qx.t;
      (** the critical offset, exactly: the decomposition of
          [P_v(w1 + z', w2 − z')] is the initial one for [0 ≤ z' < z],
          and the piece holding [w1] ends at [w1 + z] (at [w_v] when no
          change follows) *)
  changed : bool;  (** whether [z < z_max] *)
  same_pair : bool;
      (** whether the two identities sit on the same side of the same
          bottleneck pair at z = 0 — the technique's precondition
          (shifting weight within one side keeps the pair's α-ratio) *)
  utility_constant : bool;
      (** whether [U_{v¹} + U_{v²}]'s closed form on the piece holding
          [w1] is constant and equal to its z = 0 value; the technique
          claims this whenever [same_pair] (in different pairs the
          α-ratios move and the utility legitimately changes) *)
}

val find_critical :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> w1:Rational.t ->
  z_max:Rational.t -> result
(** The critical point of the shift [P_v(w1 + z, w2 − z)], [w2 = w_v − w1].
    @raise Invalid_argument when [z_max] exceeds [w2]. *)
