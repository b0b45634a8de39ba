module Q = Rational

type result = {
  z : Qx.t;
  changed : bool;
  same_pair : bool;
  utility_constant : bool;
}

let find_critical ?ctx g ~v ~w1 ~z_max =
  let ctx = Engine.Ctx.get ctx in
  let w = Graph.weight g v in
  let w2 = Q.sub w w1 in
  if Q.compare z_max w2 > 0 then
    invalid_arg "Adjusting.find_critical: z_max exceeds w2";
  let s0 = Sybil.split g { Sybil.v; weights = [| w1; w2 |] } in
  let path = s0.Sybil.graph in
  let v1 = s0.Sybil.ids.(0) and v2 = s0.Sybil.ids.(1) in
  let d0 = Decompose.compute ~ctx path in
  let u0 =
    Q.add (Utility.of_vertex path d0 v1) (Utility.of_vertex path d0 v2)
  in
  let same_pair =
    (* The technique applies when both identities sit on the same side of
       the same bottleneck pair (both in C_j, Case C-3, or both in B_j,
       Case D-1): then z moves weight within one side and the pair's
       alpha-ratio - hence the total utility - is unchanged.  On opposite
       sides the utilities legitimately move. *)
    Decompose.pair_index d0 v1 = Decompose.pair_index d0 v2
    && ((Decompose.in_b d0 v1 && Decompose.in_b d0 v2)
       || (Decompose.in_c d0 v1 && Decompose.in_c d0 v2))
  in
  (* The piece holding w1 is the one whose structure is d0: adjacent
     pieces differ, and a rational boundary's own structure is either a
     neighbour's or a point piece of its own. *)
  let x1 = Qx.of_q w1 in
  let holds (p : Breakpoints.exact_piece) =
    Qx.compare p.xlo x1 <= 0
    && Qx.compare x1 p.xhi <= 0
    && Decompose.same_structure p.structure d0
  in
  match List.find_opt holds (Breakpoints.exact_split_pieces ~ctx g ~v) with
  | None ->
      (* w_v = 0: no piece, nothing to shift *)
      { z = Qx.of_q Q.zero; changed = false; same_pair; utility_constant = true }
  | Some p ->
      let z = Qx.sub p.xhi x1 in
      let utility_constant =
        Qx.equal p.xlo p.xhi
        ||
        let num, den =
          Symbolic.slice_utility_function g ~v1 ~v2 ~total:w
            ~structure:p.structure ~ids:[| v1; v2 |]
        in
        (* N/D is the constant u0 exactly when N − u0·D vanishes *)
        Poly.is_zero (Poly.sub num (Poly.scale u0 den))
      in
      { z; changed = Qx.compare_q z z_max < 0; same_pair; utility_constant }
