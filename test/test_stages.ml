(* Tests for the stage analysis (Lemmas 14-24) and the Adjusting
   Technique. *)

module Q = Rational

let test_classify_uniform_even_ring () =
  (* Uniform even ring: v is in the alpha = 1 pair, treated as C class;
     the initial path must fall in the C cases. *)
  let g = Generators.ring_of_ints [| 5; 5; 5; 5 |] in
  match Stages.classify_initial g ~v:0 with
  | Ok (Stages.C1 | Stages.C2 | Stages.C3) -> ()
  | Ok Stages.D1 -> Alcotest.fail "uniform ring classified D1"
  | Error m -> Alcotest.fail m

let test_classify_b_class_vertex () =
  (* Ring where vertex 0 is B class: heavy vertices surrounded by light
     neighbours give away more than they get back. *)
  let g = Generators.ring_of_ints [| 10; 1; 10; 1 |] in
  let d = Decompose.compute g in
  Alcotest.(check bool) "v0 in B" true (Decompose.in_b d 0);
  match Stages.classify_initial g ~v:0 with
  | Ok Stages.D1 -> ()
  | Ok f -> Alcotest.failf "expected D-1, got %s" (Format.asprintf "%a" Stages.pp_initial_form f)
  | Error m -> Alcotest.fail m

let test_classify_c_class_vertex () =
  let g = Generators.ring_of_ints [| 1; 10; 1; 10 |] in
  let d = Decompose.compute g in
  Alcotest.(check bool) "v0 in C" true (Decompose.in_c d 0);
  match Stages.classify_initial g ~v:0 with
  | Ok (Stages.C1 | Stages.C2 | Stages.C3) -> ()
  | Ok Stages.D1 -> Alcotest.fail "C-class vertex classified D1"
  | Error m -> Alcotest.fail m

let test_analyse_tightness_family () =
  (* On the tightness family the attacker is B class and the attack is
     profitable; all stage lemma checks must hold. *)
  let g = Lower_bound.family ~k:2 in
  let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:16 ~refine:2 ()) g ~v:0 in
  Alcotest.(check bool) "profitable" true (Q.compare a.ratio Q.one > 0);
  let r = Stages.analyse g ~v:0 ~w1_star:a.w1 in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    r.Stages.checks

let test_analyse_honest_split_is_neutral () =
  (* Analysing the deviation that ends at the honest split: final = honest
     (Lemma 9), all deltas zero-sum. *)
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  let w10, _ = Sybil.initial_split g ~v:0 in
  let r = Stages.analyse g ~v:0 ~w1_star:w10 in
  Helpers.check_q "final = honest" r.Stages.honest r.Stages.final;
  Alcotest.(check bool) "checks pass" true (Stages.all_checks_pass r)

let test_report_fields_consistent () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v:1 in
  let r = Stages.analyse g ~v:1 ~w1_star:a.w1 in
  let g0, gs = r.Stages.w1_grow and s0, ss = r.Stages.w2_shrink in
  Alcotest.(check bool) "grow grows" true (Q.compare gs g0 >= 0);
  Alcotest.(check bool) "shrink shrinks" true (Q.compare ss s0 <= 0);
  (* delta telescoping: final - honest = sum of the four deltas *)
  let sum =
    Q.add
      (Q.add r.Stages.delta1_grow r.Stages.delta1_shrink)
      (Q.add r.Stages.delta2_grow r.Stages.delta2_shrink)
  in
  Helpers.check_q "telescoping" (Q.sub r.Stages.final r.Stages.honest) sum

(* ------------------------------------------------------------------ *)
(* Adjusting Technique                                                 *)
(* ------------------------------------------------------------------ *)

let test_adjusting_trivial_range () =
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  let r = Adjusting.find_critical g ~v:0 ~w1:Q.one ~z_max:Q.zero in
  Alcotest.(check bool) "no change in empty range" false r.Adjusting.changed

let test_adjusting_validation () =
  let g = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |] in
  Alcotest.check_raises "z_max range"
    (Invalid_argument "Adjusting.find_critical: z_max exceeds w2") (fun () ->
      ignore (Adjusting.find_critical g ~v:0 ~w1:Q.one ~z_max:(Q.of_int 5)))

let test_adjusting_utility_invariance () =
  (* Both identities in the alpha = 1 pair: while the decomposition is
     unchanged, shifting z must not change the attacker's total utility
     (the computation behind the Adjusting Technique). *)
  let g = Generators.ring_of_ints [| 4; 4; 4; 4 |] in
  let r = Adjusting.find_critical g ~v:0 ~w1:Q.two ~z_max:Q.one in
  Alcotest.(check bool) "same pair" true r.Adjusting.same_pair;
  Alcotest.(check bool) "utility constant" true r.Adjusting.utility_constant

let test_adjusting_exact_boundary () =
  (* On the ring 7,2,9,4,3 the split piece holding w1 = 2 is [5/3, 4]:
     the critical offset is exactly 4 − 2. *)
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let r = Adjusting.find_critical g ~v:0 ~w1:Q.two ~z_max:(Q.of_int 3) in
  Alcotest.(check bool) "z = 2 exactly" true (Qx.equal r.Adjusting.z (Qx.of_int 2));
  Alcotest.(check bool) "changed below z_max" true r.Adjusting.changed

let props =
  [
    Helpers.qtest ~count:25 "Lemma 14/20: classification succeeds"
      (Helpers.ring_gen ~nmax:7 ~wmax:25 ()) (fun g ->
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          match Stages.classify_initial g ~v with
          | Ok _ -> ()
          | Error _ -> ok := false
        done;
        !ok);
    Helpers.qtest ~count:12 "stage lemmas on best attacks"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        match Theorems.stage_lemmas ~ctx:(Engine.Ctx.make ~grid:8 ~refine:1 ()) g ~v:0 with
        | Ok _ -> true
        | Error _ -> false);
    Helpers.qtest ~count:15 "delta telescoping"
      (Helpers.ring_gen ~nmax:6 ~wmax:20 ()) (fun g ->
        let a = Incentive.best_split ~ctx:(Engine.Ctx.make ~grid:6 ~refine:1 ()) g ~v:0 in
        let r = Stages.analyse g ~v:0 ~w1_star:a.Incentive.w1 in
        let sum =
          Q.add
            (Q.add r.Stages.delta1_grow r.Stages.delta1_shrink)
            (Q.add r.Stages.delta2_grow r.Stages.delta2_shrink)
        in
        Q.equal (Q.sub r.Stages.final r.Stages.honest) sum);
    Helpers.qtest ~count:10 "adjusting: utility constant below critical z"
      (Helpers.ring_gen ~nmax:6 ~wmax:10 ()) (fun g ->
        let w10, w20 = Sybil.initial_split g ~v:0 in
        let z_max = Q.div_int w20 2 in
        let r = Adjusting.find_critical g ~v:0 ~w1:w10 ~z_max in
        (* meaningful only when both identities share a pair at z = 0 *)
        (not r.Adjusting.same_pair) || r.Adjusting.utility_constant);
    Helpers.qtest ~count:15 "adjusting: z is the exact end of the initial structure"
      (Helpers.ring_gen ~nmax:6 ~wmax:12 ()) (fun g ->
        let w = Graph.weight g 0 in
        let w10, w20 = Sybil.initial_split g ~v:0 in
        let r = Adjusting.find_critical g ~v:0 ~w1:w10 ~z_max:w20 in
        let d0 = Helpers.split_decomposition g ~v:0 w10 in
        let x1 = Qx.of_q w10 in
        let edge = Qx.add x1 r.Adjusting.z in
        let at x = Helpers.split_decomposition g ~v:0 x in
        (* the initial structure holds strictly between w1 and w1 + z ... *)
        (Qx.sign r.Adjusting.z = 0
        || Decompose.same_structure d0 (at (Qx.rational_between x1 edge)))
        (* ... and is gone just past w1 + z, unless the piece reaches w_v *)
        && (Qx.compare_q edge w = 0
           ||
           let gap = Qx.sub (Qx.of_q w) edge in
           let past =
             Qx.rational_between edge
               (Qx.add edge (Qx.div_q gap (Q.of_int (1 lsl 30))))
           in
           not (Decompose.same_structure d0 (at past))));
  ]

let () =
  Alcotest.run "stages"
    [
      ( "classification",
        [
          Alcotest.test_case "uniform even ring" `Quick test_classify_uniform_even_ring;
          Alcotest.test_case "B-class vertex" `Quick test_classify_b_class_vertex;
          Alcotest.test_case "C-class vertex" `Quick test_classify_c_class_vertex;
        ] );
      ( "stage analysis",
        [
          Alcotest.test_case "tightness family" `Quick test_analyse_tightness_family;
          Alcotest.test_case "honest split neutral" `Quick test_analyse_honest_split_is_neutral;
          Alcotest.test_case "report consistency" `Quick test_report_fields_consistent;
        ] );
      ( "adjusting",
        [
          Alcotest.test_case "trivial range" `Quick test_adjusting_trivial_range;
          Alcotest.test_case "validation" `Quick test_adjusting_validation;
          Alcotest.test_case "utility invariance" `Quick test_adjusting_utility_invariance;
          Alcotest.test_case "exact boundary" `Quick test_adjusting_exact_boundary;
        ] );
      ("properties", props);
    ]
