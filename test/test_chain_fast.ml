(* Tests for the chain DP's exact-rational instance: exact agreement with
   brute-force enumeration on paths, cycles, masks and degenerate
   weights. *)

module Q = Rational

let q = Q.of_ints

let agree_h g mask alpha =
  let h1, s1 = Helpers.brute_h_and_argmax g ~mask ~alpha in
  let h2, s2 = Chain_fast.h_and_argmax g ~mask ~alpha in
  Q.equal h1 h2 && Vset.equal s1 s2

let test_single_vertex () =
  let g = Graph.of_int_weights ~weights:[| 5 |] ~edges:[] in
  let mask = Graph.full_mask g in
  Alcotest.(check bool) "alpha=1/2" true (agree_h g mask Q.half);
  Alcotest.(check bool) "alpha=0" true (agree_h g mask Q.zero);
  Helpers.check_vset "isolated vertex is its own bottleneck"
    (Vset.singleton 0)
    (Chain_fast.maximal_bottleneck g ~mask)

let test_two_vertices () =
  let g = Generators.path_of_ints [| 1; 4 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; q 1 4; Q.half; Q.one; Q.two; q 7 3 ]

let test_triangle_cycle () =
  let g = Generators.ring_of_ints [| 2; 3; 5 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; q 1 3; Q.half; Q.one; q 3 2 ]

let test_masked_ring_becomes_paths () =
  let g = Generators.ring_of_ints [| 1; 2; 3; 4; 5; 6 |] in
  (* removing vertices 1 and 4 leaves two 2-paths *)
  let mask = Vset.of_list [ 0; 2; 3; 5 ] in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ q 1 5; Q.half; Q.one ]

let test_zero_weights () =
  let g = Generators.path_of_ints [| 0; 5; 0; 5 |] in
  let mask = Graph.full_mask g in
  List.iter
    (fun alpha ->
      Alcotest.(check bool)
        (Q.to_string alpha) true (agree_h g mask alpha))
    [ Q.zero; Q.half; Q.one ]

let test_rejects_high_degree () =
  let g = Generators.star (Array.make 4 Q.one) in
  Alcotest.check_raises "star"
    (Invalid_argument "Chain_fast: masked graph has a vertex of degree > 2")
    (fun () ->
      ignore (Chain_fast.h_and_argmax g ~mask:(Graph.full_mask g) ~alpha:Q.one))

(* Property: exact agreement on random rings/paths, random alphas, random
   masks. *)
let instance_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    bool >>= fun want_ring ->
    list_size (return n) (int_range 0 9) >>= fun ws ->
    int_range 0 30 >>= fun anum ->
    int_range 1 10 >>= fun aden ->
    int >>= fun mask_seed ->
    let ws = Array.of_list ws in
    if Array.for_all (fun w -> w = 0) ws then ws.(0) <- 1;
    let g =
      if want_ring && n >= 3 then Generators.ring_of_ints ws
      else if n >= 2 then Generators.path_of_ints ws
      else Graph.of_int_weights ~weights:ws ~edges:[]
    in
    let rng = Prng.create mask_seed in
    let mask = ref Vset.empty in
    for v = 0 to n - 1 do
      if Prng.int rng 4 > 0 then mask := Vset.add v !mask
    done;
    if Vset.is_empty !mask then mask := Vset.singleton 0;
    return (g, !mask, Rational.of_ints anum aden))

let props =
  [
    Helpers.qtest ~count:400 "h_and_argmax agrees with brute force"
      instance_gen (fun (g, mask, alpha) -> agree_h g mask alpha);
    Helpers.qtest ~count:150 "full decomposition agrees" (Helpers.ring_gen ())
      (fun g ->
        let ctx = Engine.Ctx.make ~solver:Decompose.FastChain () in
        Decompose.equal
          (Decompose.For_testing.compute_generic ~ctx g)
          (Decompose.compute ~ctx g));
  ]

let () =
  Alcotest.run "chain_fast"
    [
      ( "unit",
        [
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "two vertices" `Quick test_two_vertices;
          Alcotest.test_case "triangle" `Quick test_triangle_cycle;
          Alcotest.test_case "masked ring" `Quick test_masked_ring_becomes_paths;
          Alcotest.test_case "zero weights" `Quick test_zero_weights;
          Alcotest.test_case "degree check" `Quick test_rejects_high_degree;
        ] );
      ("properties", props);
    ]
