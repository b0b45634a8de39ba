(* Anatomy of a (nearly) worst-case Sybil attack.

   Walks through the paper's Section III machinery on the tightness
   family: the honest state, the split, the stage decomposition with its
   delta terms, and the closed-form ratio 2 - 1/(5k+1).

     dune exec examples/tight_attack.exe *)

module Q = Rational

let () =
  let k = 4 in
  let g = Lower_bound.family ~k in
  let v = Lower_bound.attacker in
  Format.printf "tightness family, k = %d:@.%a@." k Graph.pp g;

  (* Honest state. *)
  let d = Decompose.compute g in
  Format.printf "ring decomposition:@.%a@." Decompose.pp d;
  let honest = Sybil.honest_utility g ~v in
  Format.printf "agent %d is %s class; honest utility U_v = %s@." v
    (if Decompose.in_b d v then "B" else "C")
    (Q.to_string honest);

  (* Where the honest allocation would put the two identities (Lemma 9). *)
  let w10, w20 = Sybil.initial_split g ~v in
  Format.printf
    "@.honest allocation ships (w1^0, w2^0) = (%s, %s); splitting there changes nothing (Lemma 9):@."
    (Q.to_string w10) (Q.to_string w20);
  Format.printf "  split utility at the honest point = %s@."
    (Q.to_string (Sybil.split_utility g ~v ~w1:w10));

  (* The attack: keep almost everything on identity 1, leave a crumb on
     identity 2.  The crumb captures its neighbour's whole weight. *)
  let eps = Q.of_ints 1 8 in
  let w1 = Q.sub (Graph.weight g v) eps in
  let s = Sybil.split g { Sybil.v; weights = [| w1; eps |] } in
  let dp = Decompose.compute s.graph in
  Format.printf "@.attack split (w1, w2) = (%s, %s);@.path decomposition:@.%a@."
    (Q.to_string w1) (Q.to_string eps) Decompose.pp dp;
  let u1 = Utility.of_vertex s.graph dp s.ids.(0)
  and u2 = Utility.of_vertex s.graph dp s.ids.(1) in
  Format.printf "identity utilities: U_v1 = %s, U_v2 = %s, total = %s@."
    (Q.to_string u1) (Q.to_string u2)
    (Q.to_string (Q.add u1 u2));
  Format.printf "closed form U'(eps) = %s (must match)@."
    (Q.to_string (Lower_bound.ratio_at ~k ~epsilon:eps));

  (* Stage decomposition of the deviation (Section III.D: v is B class). *)
  let r = Stages.analyse g ~v ~w1_star:w1 in
  Format.printf "@.stage analysis (%s stages):@."
    (match r.kind with `C -> "C" | `D -> "D");
  Format.printf "  stage 1: grow delta = %s, shrink delta = %s@."
    (Q.to_string r.delta1_grow)
    (Q.to_string r.delta1_shrink);
  Format.printf "  stage 2: grow delta = %s, shrink delta = %s@."
    (Q.to_string r.delta2_grow)
    (Q.to_string r.delta2_shrink);
  List.iter
    (fun (name, ok) ->
      Format.printf "  %-52s %s@." name (if ok then "holds" else "VIOLATED"))
    r.checks;

  (* The limit. *)
  Format.printf "@.ratio at this split: %.6f; supremum of the family: %s = %.6f; Theorem 8 bound: 2@."
    (Q.to_float (Q.div (Q.add u1 u2) honest))
    (Q.to_string (Lower_bound.supremum_ratio ~k))
    (Q.to_float (Lower_bound.supremum_ratio ~k))
