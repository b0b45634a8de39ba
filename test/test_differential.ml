(* Differential battery across the three decomposition solvers.

   Every random instance is decomposed by each applicable solver; the
   decompositions must be *identical* (same pairs, same alphas — not
   merely equivalent), pass Proposition 3 validation, and carry a
   flow-witness certificate that Certificate.verify accepts.  All
   generators run under the fixed qtest seed, so a failure here is
   reproducible and the printed counterexample is the whole story. *)

let all_solvers =
  [
    ("fast-chain", Decompose.FastChain);
    ("flow", Decompose.Flow);
    ("brute", Decompose.Brute);
    ("auto", Decompose.Auto);
  ]

(* The chain DP solvers require max degree <= 2; general graphs get the
   degree-agnostic subset. *)
let general_solvers =
  [ ("flow", Decompose.Flow); ("brute", Decompose.Brute);
    ("auto", Decompose.Auto) ]

let check_all ~solvers g =
  let ref_name, ref_solver = List.hd solvers in
  let d0 = Decompose.compute ~ctx:(Engine.Ctx.make ~solver:ref_solver ()) g in
  List.iter
    (fun (name, solver) ->
      let d = Decompose.compute ~ctx:(Engine.Ctx.make ~solver ()) g in
      if not (Decompose.equal d0 d) then
        QCheck2.Test.fail_reportf
          "solver %s disagrees with %s on@.%a@.%s found:@.%a@.%s found:@.%a"
          name ref_name Graph.pp g ref_name Decompose.pp d0 name Decompose.pp
          d)
    (List.tl solvers);
  (match Decompose.validate g d0 with
  | Ok () -> ()
  | Error m ->
      QCheck2.Test.fail_reportf
        "decomposition violates Proposition 3 on@.%a@.%a@.error: %s" Graph.pp
        g Decompose.pp d0 m);
  let cert = Certificate.build g d0 in
  (match Certificate.verify g d0 cert with
  | Ok () -> ()
  | Error m ->
      QCheck2.Test.fail_reportf
        "certificate rejected on@.%a@.%a@.error: %s" Graph.pp g Decompose.pp
        d0 m);
  true

(* Large seeded instances: the per-component driver (implicit backend)
   against the same instance with materialised adjacency — the two code
   paths share no adjacency representation, so agreement here pins the
   whole implicit-backend + zero-copy-driver stack at sizes the
   QCheck generators never reach. *)
let test_large_backends () =
  List.iter
    (fun (seed, n, kind) ->
      let family = Weights.Uniform (1, 100) in
      let g =
        match kind with
        | `Ring -> Instances.ring ~seed ~n family
        | `Chain -> Instances.path ~seed ~n family
      in
      let ctx = Engine.Ctx.make ~solver:Decompose.FastChain () in
      let d_impl = Decompose.compute ~ctx g in
      let d_mat = Decompose.compute ~ctx (Graph.materialise g) in
      Alcotest.(check bool)
        (Printf.sprintf "implicit = materialised (n=%d)" n)
        true
        (Decompose.equal d_impl d_mat))
    [
      (3, 1_000, `Ring);
      (4, 1_000, `Chain);
      (5, 10_000, `Ring);
      (6, 10_000, `Chain);
    ]

(* The O(n log n) driver against the generic whole-mask loop at a size
   where the quadratic loop is still tolerable: bit-identical pairs and
   alphas (the driver's int-scaled alpha arithmetic included). *)
let test_driver_vs_generic_large () =
  let g = Instances.ring ~seed:7 ~n:512 (Weights.Uniform (1, 100)) in
  let ctx = Engine.Ctx.make ~solver:Decompose.FastChain () in
  let d = Decompose.compute ~ctx g in
  let d_gen = Decompose.For_testing.compute_generic ~ctx g in
  Alcotest.(check bool) "driver = generic loop (n=512)" true
    (Decompose.equal d d_gen)

(* Grid-vs-exact sweep differential: under every registered solver the
   exact event-driven sweep must dominate the grid sweep (its ratio is
   the certified supremum) while both sweeps agree on the honest
   utility, and the exact results themselves must be bit-identical
   across solvers (the sweep machinery only consumes decompositions,
   which the solver-agreement battery pins). *)
let check_sweeps g =
  let v = 0 in
  if Rational.sign (Graph.weight g v) = 0 then true
  else begin
    let exacts =
      List.map
        (fun (name, solver) ->
          let ctx = Engine.Ctx.make ~solver ~sweep:Engine.Exact () in
          (name, Incentive.best_split_exact ~ctx g ~v))
        all_solvers
    in
    let _, e0 = List.hd exacts in
    List.iter
      (fun (name, e) ->
        if
          Qx.compare e0.Incentive.ratio_exact e.Incentive.ratio_exact <> 0
          || Qx.compare e0.Incentive.w1_exact e.Incentive.w1_exact <> 0
          || e0.Incentive.pieces <> e.Incentive.pieces
          || e0.Incentive.events <> e.Incentive.events
        then
          QCheck2.Test.fail_reportf
            "exact sweep under solver %s disagrees on@.%a@.ratio %s vs %s"
            name Graph.pp g
            (Qx.to_string e0.Incentive.ratio_exact)
            (Qx.to_string e.Incentive.ratio_exact))
      (List.tl exacts);
    List.iter
      (fun (name, solver) ->
        let ctx = Engine.Ctx.make ~solver ~grid:12 ~refine:2 () in
        let a = Incentive.best_split ~ctx g ~v in
        if Qx.compare_q e0.Incentive.ratio_exact a.Incentive.ratio < 0 then
          QCheck2.Test.fail_reportf
            "grid sweep under solver %s beats the exact sweep on@.%a@.%s > %s"
            name Graph.pp g
            (Rational.to_string a.Incentive.ratio)
            (Qx.to_string e0.Incentive.ratio_exact);
        if
          Rational.compare a.Incentive.honest
            e0.Incentive.witness.Incentive.honest
          <> 0
        then
          QCheck2.Test.fail_reportf
            "sweeps disagree on the honest utility under solver %s on@.%a"
            name Graph.pp g)
      all_solvers;
    true
  end

(* ------------------------------------------------------------------ *)
(* k-identity split vectors                                            *)
(* ------------------------------------------------------------------ *)

(* At two identities the attack's weight vector is the pair
   [w1; w_v − w1] — in both sweep modes, serial and parallel, for the
   whole-ring search and for one vertex's. *)
let check_k2_weights g =
  let is_pair (a : Incentive.attack) =
    Array.length a.Incentive.weights = 2
    && Rational.equal a.Incentive.weights.(0) a.Incentive.w1
    && Rational.equal a.Incentive.weights.(1)
         (Rational.sub (Graph.weight g a.Incentive.v) a.Incentive.w1)
  in
  List.iter
    (fun (sweep, domains) ->
      let ctx = Engine.Ctx.make ~sweep ~grid:8 ~refine:1 ~domains () in
      if
        not
          (is_pair (Incentive.best_attack ~ctx g)
          && is_pair (Incentive.best_split ~ctx g ~v:0))
      then
        QCheck2.Test.fail_reportf
          "k=2 weights are not [w1; w_v - w1] (domains=%d) on@.%a" domains
          Graph.pp g)
    [
      (Engine.Grid, 1); (Engine.Grid, 3);
      (Engine.Exact, 1); (Engine.Exact, 3);
    ];
  true

(* Hard pins on the ring [7;2;9;4;3] so a silent change in either sweep
   shows up as a concrete value, not just a broken equality. *)
let test_k2_pins () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  List.iter
    (fun domains ->
      let ctx = Engine.Ctx.make ~grid:8 ~refine:1 ~domains () in
      let a = Incentive.best_attack ~ctx g in
      Alcotest.(check int) "grid v" 0 a.Incentive.v;
      Alcotest.(check string) "grid w1" "21/4"
        (Rational.to_string a.Incentive.w1);
      Alcotest.(check string) "grid utility" "5"
        (Rational.to_string a.Incentive.utility);
      Alcotest.(check string) "grid honest" "63/16"
        (Rational.to_string a.Incentive.honest);
      Alcotest.(check string) "grid ratio" "80/63"
        (Rational.to_string a.Incentive.ratio);
      Alcotest.(check string) "grid weights" "21/4;7/4"
        (String.concat ";"
           (Array.to_list (Array.map Rational.to_string a.Incentive.weights)));
      let ctxe = Engine.Ctx.make ~sweep:Engine.Exact ~domains () in
      let e = Incentive.best_attack_exact ~ctx:ctxe g in
      Alcotest.(check string) "exact w1" "9/2"
        (Qx.to_string e.Incentive.w1_exact);
      Alcotest.(check string) "exact ratio" "80/63"
        (Qx.to_string e.Incentive.ratio_exact);
      Alcotest.(check int) "exact pieces" 7 e.Incentive.pieces;
      Alcotest.(check int) "exact events" 6 e.Incentive.events;
      let ae = Incentive.best_attack ~ctx:ctxe g in
      Alcotest.(check string) "exact witness weights" "9/2;5/2"
        (String.concat ";"
           (Array.to_list
              (Array.map Rational.to_string ae.Incentive.weights)));
      Alcotest.(check string) "exact witness ratio" "80/63"
        (Rational.to_string ae.Incentive.ratio))
    [ 1; 3 ]

(* Reference oracle for k >= 3: enumerate the whole simplex lattice. *)
let brute_attack_k g ~k ~grid =
  let best = ref Rational.zero in
  for v = 0 to Graph.n g - 1 do
    let w = Graph.weight g v in
    let honest = Sybil.honest_utility g ~v in
    if Rational.sign honest > 0 && Rational.sign w > 0 then begin
      let step = Rational.div_int w grid in
      let rec go m remaining acc =
        if m = 1 then begin
          let ws = Array.of_list (List.rev (remaining :: acc)) in
          let u = Sybil.utility g { Sybil.v; weights = ws } in
          let r = Rational.div u honest in
          if Rational.compare r !best > 0 then best := r
        end
        else
          for i = 0 to grid do
            let x = Rational.mul_int step i in
            if Rational.compare x remaining <= 0 then
              go (m - 1) (Rational.sub remaining x) (x :: acc)
          done
      in
      go k w []
    end
  done;
  !best

(* The production simplex sweep at refine:0 on a grid divisible by k
   visits exactly the brute lattice (the uniform seed w/k included), so
   the two ratios must be *equal*; the zoomed sweep and the exact
   coordinate descent may only improve on it. *)
let test_k3_brute_tieout () =
  List.iter
    (fun (seed, n) ->
      let g = Instances.ring ~seed ~n (Weights.Uniform (1, 12)) in
      let brute = brute_attack_k g ~k:3 ~grid:6 in
      let flat =
        Incentive.best_attack
          ~ctx:(Engine.Ctx.make ~grid:6 ~refine:0 ~identities:3 ())
          g
      in
      let zoomed =
        Incentive.best_attack
          ~ctx:(Engine.Ctx.make ~grid:6 ~refine:2 ~identities:3 ())
          g
      in
      Alcotest.(check string)
        (Printf.sprintf "refine:0 = brute (seed %d, n=%d)" seed n)
        (Rational.to_string brute)
        (Rational.to_string flat.Incentive.ratio);
      Alcotest.(check bool)
        (Printf.sprintf "zoomed >= brute (seed %d, n=%d)" seed n)
        true
        (Rational.compare zoomed.Incentive.ratio brute >= 0))
    [ (11, 3); (12, 4); (13, 5); (14, 4); (15, 5) ]

(* The record instance: a 3-way split beats Theorem 8's 2-identity
   bound, certified by the exact coordinate-descent sweep. *)
let test_k3_beats_two () =
  let g = Generators.ring_of_ints [| 7; 2; 9; 4; 3 |] in
  let k3 =
    Incentive.best_attack
      ~ctx:(Engine.Ctx.make ~sweep:Engine.Exact ~identities:3 ())
      g
  in
  Alcotest.(check int) "record v" 0 k3.Incentive.v;
  Alcotest.(check string) "record weights" "0;4;3"
    (String.concat ";"
       (Array.to_list (Array.map Rational.to_string k3.Incentive.weights)));
  Alcotest.(check string) "record ratio 128/63 > 2" "128/63"
    (Rational.to_string k3.Incentive.ratio)

let () =
  Alcotest.run "differential"
    [
      ( "large instances",
        [
          Alcotest.test_case "implicit vs materialised backends" `Quick
            test_large_backends;
          Alcotest.test_case "driver vs generic loop" `Quick
            test_driver_vs_generic_large;
        ] );
      ( "solver agreement",
        [
          Helpers.qtest ~count:100
            "rings: chain = fast-chain = flow = brute = auto + certificate"
            (Helpers.ring_gen ~nmax:9 ())
            (check_all ~solvers:all_solvers);
          Helpers.qtest ~count:60
            "paths: chain = fast-chain = flow = brute = auto + certificate"
            (Helpers.path_gen ~nmax:9 ())
            (check_all ~solvers:all_solvers);
          Helpers.qtest ~count:60
            "general graphs: flow = brute = auto + certificate"
            (Helpers.graph_gen ~nmax:7 ())
            (check_all ~solvers:general_solvers);
        ] );
      ( "sweep agreement",
        [
          Helpers.qtest ~count:25
            "rings: exact sweep identical across solvers, dominates grid"
            (Helpers.ring_gen ~nmax:7 ~wmax:20 ())
            check_sweeps;
        ] );
      ( "k-way",
        [
          Helpers.qtest ~count:20
            "rings: k=2 weights are the pair [w1; w_v - w1]"
            (Helpers.ring_gen ~nmax:6 ~wmax:15 ())
            check_k2_weights;
          Alcotest.test_case "k=2 pins on [7;2;9;4;3]" `Quick test_k2_pins;
          Alcotest.test_case "k=3 ties out with brute force (n=3..5)" `Quick
            test_k3_brute_tieout;
          Alcotest.test_case "k=3 record ratio 128/63 > 2" `Quick
            test_k3_beats_two;
        ] );
    ]
