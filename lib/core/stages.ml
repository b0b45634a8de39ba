module Q = Rational

type initial_form = C1 | C2 | C3 | D1

let pp_initial_form fmt f =
  Format.pp_print_string fmt
    (match f with
    | C1 -> "Case C-1"
    | C2 -> "Case C-2"
    | C3 -> "Case C-3"
    | D1 -> "Case D-1")

(* Side of an identity in a decomposition, with the paper's convention that
   α = 1 (B = C) membership counts as C class. *)
let side_of d v =
  let p = Decompose.pair_of d v in
  if Q.equal p.alpha Q.one then `C
  else if Vset.mem v p.b then `B
  else `C

let classify_initial ?ctx g ~v =
  let w10, w20 = Sybil.initial_split ?ctx g ~v in
  let s = Sybil.split_free g { Sybil.v; weights = [| w10; w20 |] } in
  let d = Decompose.compute ?ctx s.graph in
  let v1 = s.ids.(0) and v2 = s.ids.(1) in
  let side1 = side_of d v1 and side2 = side_of d v2 in
  let a1 = Decompose.alpha_of d v1 and a2 = Decompose.alpha_of d v2 in
  let single_pair = List.length d = 1 in
  let ring_d = Decompose.compute ?ctx g in
  let ring_side = side_of ring_d v in
  match (side1, side2) with
  | `C, `C ->
      if ring_side <> `C then Error "both identities C but v is B class on G"
      else if Q.compare (Q.max a1 a2) (Q.min a1 a2) >= 0 then Ok C3
      else Error "unreachable"
  | `B, `B ->
      if ring_side <> `B then Error "both identities B but v is C class on G"
      else Ok D1
  | `B, `C ->
      if single_pair then Ok C1
      else if Q.is_zero w10 then Ok C2
      else Error "mixed B/C identities with several pairs and w1 > 0"
  | `C, `B ->
      if single_pair then Ok C1
      else if Q.is_zero w20 then Ok C2
      else Error "mixed C/B identities with several pairs and w2 > 0"

type report = {
  kind : [ `C | `D ];
  honest : Q.t;
  final : Q.t;
  w1_grow : Q.t * Q.t;
  w2_shrink : Q.t * Q.t;
  delta1_grow : Q.t;
  delta1_shrink : Q.t;
  delta2_grow : Q.t;
  delta2_shrink : Q.t;
  checks : (string * bool) list;
}

let analyse ?ctx g ~v ~w1_star =
  let w = Graph.weight g v in
  let w10, w20 = Sybil.initial_split ?ctx g ~v in
  let w2_star = Q.sub w w1_star in
  (* Orient so that identity "grow" is the one whose weight increases
     (paper w.l.o.g. assumes w1⋆ >= w1⁰). *)
  let grow_is_v1 = Q.compare w1_star w10 >= 0 in
  let eval (wg, ws) =
    let w1, w2 = if grow_is_v1 then (wg, ws) else (ws, wg) in
    let s = Sybil.split_free g { Sybil.v; weights = [| w1; w2 |] } in
    let d = Decompose.compute ?ctx s.graph in
    let v1 = s.ids.(0) and v2 = s.ids.(1) in
    let u1 = Utility.of_vertex s.graph d v1
    and u2 = Utility.of_vertex s.graph d v2 in
    let ug, us = if grow_is_v1 then (u1, u2) else (u2, u1) in
    let grow_id = if grow_is_v1 then v1 else v2 in
    (ug, us, side_of d grow_id)
  in
  let g0, s0 = if grow_is_v1 then (w10, w20) else (w20, w10) in
  let gs, ss = if grow_is_v1 then (w1_star, w2_star) else (w2_star, w1_star) in
  let ring_d = Decompose.compute ?ctx g in
  let kind = match side_of ring_d v with `C -> `C | `B -> `D in
  let honest = Utility.of_vertex g ring_d v in
  let u_init_g, u_init_s, _ = eval (g0, s0) in
  let u_fin_g, u_fin_s, final_grow_side = eval (gs, ss) in
  let inter = match kind with `C -> (g0, ss) | `D -> (gs, s0) in
  let u_mid_g, u_mid_s, _ = eval inter in
  let d1g = Q.sub u_mid_g u_init_g
  and d1s = Q.sub u_mid_s u_init_s
  and d2g = Q.sub u_fin_g u_mid_g
  and d2s = Q.sub u_fin_s u_mid_s in
  let final = Q.add u_fin_g u_fin_s in
  let le a b = Q.compare a b <= 0 in
  let base_checks =
    [
      ("Lemma 9: initial split utility equals U_v",
       Q.equal (Q.add u_init_g u_init_s) honest);
      ("Theorem 8: final utility <= 2 U_v", le final (Q.mul_int honest 2));
    ]
  in
  let stage_checks =
    match kind with
    | `C ->
        [
          ("Lemma 16: stage C-1 grow delta <= 0", le d1g Q.zero);
          ("Lemma 16: stage C-1 shrink delta <= 0", le d1s Q.zero);
        ]
        @ (match final_grow_side with
          | `C ->
              [
                ("Lemma 18: stage C-2 grow delta <= U_v", le d2g honest);
                ("Lemma 18: stage C-2 shrink delta = 0", Q.equal d2s Q.zero);
              ]
          | `B ->
              [
                ( "Lemma 19: final utility <= 2 U_v (grow ends B class)",
                  le final (Q.mul_int honest 2) );
              ])
    | `D ->
        [
          ("Lemma 22: stage D-1 grow delta <= U_v", le d1g honest);
          ("Lemma 22: stage D-1 shrink delta = 0", Q.equal d1s Q.zero);
          ("Lemma 24: stage D-2 grow delta <= 0", le d2g Q.zero);
          ("Lemma 24: stage D-2 shrink delta <= 0", le d2s Q.zero);
        ]
  in
  {
    kind;
    honest;
    final;
    w1_grow = (g0, gs);
    w2_shrink = (s0, ss);
    delta1_grow = d1g;
    delta1_shrink = d1s;
    delta2_grow = d2g;
    delta2_shrink = d2s;
    checks = base_checks @ stage_checks;
  }

let all_checks_pass r = List.for_all snd r.checks
