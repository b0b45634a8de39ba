(* Tests for the symbolic Theorem 8 verifier. *)

module Q = Rational

let test_utility_function_matches_mechanism () =
  (* On a structure-constant stretch the rational function must equal the
     mechanism's exact utility. *)
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  let v = 0 and n = Graph.n g in
  let total = Graph.weight g v in
  let w1 = Q.of_ints 3 4 in
  let structure = Helpers.split_decomposition g ~v w1 in
  let num, den =
    Symbolic.slice_utility_function g ~v1:v ~v2:n ~total ~structure
      ~ids:[| v; n |]
  in
  Helpers.check_q "N/D = mechanism"
    (Sybil.split_utility g ~v ~w1)
    (Q.div (Poly.eval num w1) (Poly.eval den w1))

let test_ring_and_path_forms_agree () =
  (* The two-identity closed form read off the ring equals the one read
     off the materialised split path: the fixed vertices carry the same
     weights in both. *)
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let v = 0 and n = Graph.n g in
  let total = Graph.weight g v in
  List.iter
    (fun w1 ->
      let s = Sybil.split g { Sybil.v; weights = [| w1; Q.sub total w1 |] } in
      let structure = Decompose.compute s.Sybil.graph in
      let form h =
        Symbolic.slice_utility_function h ~v1:v ~v2:n ~total ~structure
          ~ids:[| v; n |]
      in
      let rn, rd = form g and pn, pd = form s.Sybil.graph in
      Alcotest.(check bool) "same N and D" true
        (Poly.equal rn pn && Poly.equal rd pd))
    [ Q.of_ints 1 2; Q.of_int 3; Q.of_ints 9 2; Q.of_int 6 ]

let piece ~xlo ~xhi ~sample =
  {
    Breakpoints.xlo = Qx.of_q xlo;
    xhi = Qx.of_q xhi;
    sample;
    structure = Decompose.compute (Generators.ring_of_ints [| 1; 1; 1 |]);
  }

let test_maximise_piece () =
  (* 2x − x² on [0, 2]: interior maximum 1 at the rational root x = 1 *)
  let m =
    Symbolic.maximise_piece
      (Poly.of_coeffs [ Q.zero; Q.two; Q.of_int (-1) ], Poly.one)
      (piece ~xlo:Q.zero ~xhi:Q.two ~sample:(Q.of_ints 1 2))
  in
  Alcotest.(check bool) "max 1 at x = 1" true
    (Qx.equal m.Symbolic.value (Qx.of_int 1) && Qx.equal m.arg (Qx.of_int 1));
  Alcotest.(check int) "one critical" 1 m.criticals;
  Alcotest.(check int) "xlo, root, xhi, sample" 4 m.evals;
  (* x / (x² + 2) on [0, 3]: the maximum sits at the irrational √2 and is
     √2/4, exactly *)
  let m =
    Symbolic.maximise_piece
      (Poly.x, Poly.of_coeffs [ Q.two; Q.zero; Q.one ])
      (piece ~xlo:Q.zero ~xhi:(Q.of_int 3) ~sample:Q.one)
  in
  Alcotest.(check bool) "argmax sqrt 2" true
    (Qx.equal m.arg (Qx.sqrt_q Q.two));
  Alcotest.(check bool) "max sqrt 2 / 4" true
    (Qx.equal m.value (Qx.make ~q:Q.zero ~r:(Q.of_ints 1 4) ~d:(Bigint.of_int 2)))

let certify g v =
  match Symbolic.verify_theorem8 g ~v with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_certifies_known_instances () =
  List.iter
    (fun (name, g, v) ->
      let r = certify g v in
      Alcotest.(check bool) (name ^ " certified") true r.Symbolic.certified;
      Alcotest.(check bool)
        (name ^ " best <= 2 honest")
        true
        (Qx.compare_q r.Symbolic.best_found (Q.mul_int r.Symbolic.honest 2)
        <= 0))
    [
      ("plain ring", Generators.ring_of_ints [| 3; 1; 4; 1; 5 |], 0);
      ("uniform", Generators.ring_of_ints [| 5; 5; 5; 5 |], 0);
      ("family k=2", Lower_bound.family ~k:2, 0);
      ("engineered", Generators.ring_of_ints [| 200; 40; 10000; 10; 1 |], 0);
    ]

let test_best_found_beats_grid_search () =
  (* The exact per-piece maxima dominate any grid search. *)
  let g = Lower_bound.family ~k:3 in
  let r = certify g 0 in
  let grid_best =
    (Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:1 ()) g ~v:0)
      .utility
  in
  Alcotest.(check bool) "symbolic >= grid" true
    (Qx.compare_q r.Symbolic.best_found grid_best >= 0)

let test_interval_structure () =
  (* The ring whose two-identity optimum is 80/63: seven pieces, two of
     them rational point pieces, and the exact supremum 5. *)
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let r = certify g 0 in
  Alcotest.(check int) "seven intervals" 7 (List.length r.Symbolic.intervals);
  Alcotest.(check bool) "certified" true r.Symbolic.certified;
  Alcotest.(check bool) "best found 5" true
    (Qx.equal r.Symbolic.best_found (Qx.of_int 5));
  Alcotest.(check bool) "ratio 80/63" true
    (Qx.equal
       (Incentive.ratio ~utility:r.Symbolic.best_found ~honest:r.Symbolic.honest)
       (Qx.of_q (Q.of_ints 80 63)));
  (* away from the piece's own sample, the closed form still matches the
     mechanism and its denominator is positive *)
  List.iter
    (fun (iv : Symbolic.interval) ->
      if Qx.compare iv.lo iv.hi < 0 then begin
        let x = Qx.rational_between iv.lo iv.hi in
        Alcotest.(check bool) "den positive inside" true
          (Q.sign (Poly.eval iv.den x) > 0);
        Helpers.check_q "N/D = mechanism inside"
          (Sybil.split_utility g ~v:0 ~w1:x)
          (Q.div (Poly.eval iv.num x) (Poly.eval iv.den x))
      end)
    r.Symbolic.intervals

let test_zero_honest_utility () =
  (* A zero-weight neighbourhood leaves U_v = 0; the report is still
     produced and the ratio follows the 0/0 = 1 convention. *)
  let g = Generators.ring_of_ints [| 3; 0; 0 |] in
  let r = certify g 0 in
  Helpers.check_q "honest 0" Q.zero r.Symbolic.honest;
  Alcotest.(check bool) "ratio 1" true
    (Qx.equal
       (Incentive.ratio ~utility:r.Symbolic.best_found ~honest:Q.zero)
       (Qx.of_int 1));
  Alcotest.(check bool) "u/0 is infinite" true
    (Qx.is_inf (Incentive.ratio ~utility:(Qx.of_int 5) ~honest:Q.zero))

let props =
  [
    Helpers.qtest ~count:10 "certifies random rings"
      (Helpers.ring_gen ~nmax:6 ~wmax:15 ()) (fun g ->
        match Symbolic.verify_theorem8 g ~v:0 with
        | Ok r -> r.Symbolic.certified
        | Error _ -> false);
    Helpers.qtest ~count:25 "intervals tile [0, w_v] like the exact sweep"
      QCheck2.Gen.(pair (Helpers.ring_gen ~nmax:7 ~wmax:30 ()) (int_range 0 6))
      (fun (g, i) ->
        let v = i mod Graph.n g in
        match Symbolic.verify_theorem8 g ~v with
        | Error _ -> false
        | Ok r ->
            let e = Incentive.best_split_exact g ~v in
            let rec tiles at = function
              | (iv : Symbolic.interval) :: rest ->
                  Qx.equal iv.lo at && tiles iv.hi rest
              | [] -> Qx.equal at (Qx.of_q (Graph.weight g v))
            in
            tiles (Qx.of_int 0) r.Symbolic.intervals
            && List.length r.Symbolic.intervals = e.Incentive.pieces
            && Qx.equal r.Symbolic.best_found e.Incentive.utility_exact);
  ]

let () =
  Alcotest.run "symbolic"
    [
      ( "unit",
        [
          Alcotest.test_case "utility function" `Quick test_utility_function_matches_mechanism;
          Alcotest.test_case "ring and path forms agree" `Quick
            test_ring_and_path_forms_agree;
          Alcotest.test_case "maximise piece" `Quick test_maximise_piece;
          Alcotest.test_case "certifies instances" `Slow test_certifies_known_instances;
          Alcotest.test_case "beats grid search" `Quick test_best_found_beats_grid_search;
          Alcotest.test_case "interval structure" `Quick test_interval_structure;
          Alcotest.test_case "zero honest utility" `Quick test_zero_honest_utility;
        ] );
      ("properties", props);
    ]
