(* Tests for the Sybil attack model: split construction, Lemma 9 and the
   honest baseline. *)

module Q = Rational

let q = Q.of_ints
let check_q = Helpers.check_q

let ring5 () = Generators.ring_of_ints [| 3; 1; 4; 1; 5 |]

(* ------------------------------------------------------------------ *)
(* Split construction                                                  *)
(* ------------------------------------------------------------------ *)

let pair_split ?(free = false) g ~v w1 w2 =
  (if free then Sybil.split_free else Sybil.split)
    g { Sybil.v; weights = [| w1; w2 |] }

let test_split_shape () =
  let g = ring5 () in
  let s = pair_split g ~v:0 (q 1 1) (q 2 1) in
  let path = s.Sybil.graph and v1 = s.ids.(0) and v2 = s.ids.(1) in
  Alcotest.(check int) "path size" 6 (Graph.n path);
  Alcotest.(check int) "two identities" 2 (Array.length s.ids);
  Alcotest.(check int) "v1 keeps id" 0 v1;
  Alcotest.(check int) "v2 is fresh" 5 v2;
  (* both identities are path endpoints *)
  Alcotest.(check int) "v1 degree" 1 (Graph.degree path v1);
  Alcotest.(check int) "v2 degree" 1 (Graph.degree path v2);
  (* v1 keeps the smaller-id neighbour (1), v2 gets the other (4) *)
  Alcotest.(check (array int)) "v1 edge" [| 1 |] (Graph.neighbors path v1);
  Alcotest.(check (array int)) "v2 edge" [| 4 |] (Graph.neighbors path v2);
  check_q "v1 weight" Q.one (Graph.weight path v1);
  check_q "v2 weight" Q.two (Graph.weight path v2);
  (* other weights unchanged *)
  check_q "w3 unchanged" Q.one (Graph.weight path 3)

let test_split_shape_k3 () =
  (* the extra identities extend the far end of the opened ring:
     v¹ — 1 — 2 — 3 — 4 — v² — v³ *)
  let g = ring5 () in
  let s = Sybil.split g { Sybil.v = 0; weights = [| q 1 1; q 1 1; q 1 1 |] } in
  let path = s.Sybil.graph in
  Alcotest.(check (array int)) "ids" [| 0; 5; 6 |] s.ids;
  Alcotest.(check int) "path size" 7 (Graph.n path);
  Alcotest.(check (array int)) "v1 edge" [| 1 |] (Graph.neighbors path 0);
  Alcotest.(check (array int)) "v2 edges" [| 4; 6 |]
    (Array.of_list
       (List.sort Int.compare (Array.to_list (Graph.neighbors path 5))));
  Alcotest.(check (array int)) "v3 edge" [| 5 |] (Graph.neighbors path 6);
  Array.iter
    (fun id -> check_q "identity weight" Q.one (Graph.weight path id))
    s.ids

let test_split_validation () =
  let g = ring5 () in
  Alcotest.check_raises "sum" (Invalid_argument "Sybil.split: weights must sum to w_v")
    (fun () -> ignore (pair_split g ~v:0 Q.one Q.one));
  Alcotest.check_raises "negative"
    (Invalid_argument "Sybil.split: negative identity weight") (fun () ->
      ignore (pair_split ~free:true g ~v:0 (q (-1) 1) Q.one));
  Alcotest.check_raises "one identity"
    (Invalid_argument "Sybil.split: fewer than 2 identities") (fun () ->
      ignore (Sybil.split g { Sybil.v = 0; weights = [| q 3 1 |] }));
  let p = Generators.path_of_ints [| 1; 1; 1 |] in
  Alcotest.check_raises "not a ring" (Invalid_argument "Sybil.split: not a ring")
    (fun () -> ignore (pair_split ~free:true p ~v:0 Q.zero Q.one))

let test_split_free_total () =
  (* split_free allows the intermediate, non-conserving paths. *)
  let g = ring5 () in
  let s = pair_split ~free:true g ~v:2 Q.one Q.one in
  check_q "w1" Q.one (Graph.weight s.graph s.ids.(0));
  check_q "w2" Q.one (Graph.weight s.graph s.ids.(1))

let test_honest_utility () =
  let g = ring5 () in
  let d = Decompose.compute g in
  check_q "matches Proposition 6" (Utility.of_vertex g d 0)
    (Sybil.honest_utility g ~v:0)

let test_initial_split_ships_everything () =
  let g = ring5 () in
  for v = 0 to 4 do
    let w1, w2 = Sybil.initial_split g ~v in
    check_q
      (Printf.sprintf "v%d total" v)
      (Graph.weight g v) (Q.add w1 w2)
  done

(* ------------------------------------------------------------------ *)
(* Lemma 9                                                             *)
(* ------------------------------------------------------------------ *)

let test_lemma9_fig_family () =
  List.iter
    (fun weights ->
      let g = Generators.ring_of_ints weights in
      for v = 0 to Array.length weights - 1 do
        match Theorems.lemma9 g ~v with
        | Ok () -> ()
        | Error m -> Alcotest.failf "Lemma 9 failed at v=%d: %s" v m
      done)
    [
      [| 1; 1; 1; 1 |];
      [| 3; 1; 4; 1; 5 |];
      [| 10; 1; 1; 10 |];
      [| 2; 2; 2; 2; 2; 2 |];
      [| 100; 1; 50; 1; 100; 1 |];
    ]

let props =
  [
    Helpers.qtest ~count:60 "Lemma 9 on random rings" (Helpers.ring_gen ~nmax:8 ())
      (fun g ->
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          match Theorems.lemma9 g ~v with Ok () -> () | Error _ -> ok := false
        done;
        !ok);
    Helpers.qtest ~count:60 "split utilities are non-negative"
      (Helpers.ring_gen ~nmax:7 ()) (fun g ->
        let v = 0 in
        let w = Graph.weight g v in
        List.for_all
          (fun k ->
            let w1 = Q.div_int (Q.mul_int w k) 4 in
            Q.sign (Sybil.split_utility g ~v ~w1) >= 0)
          [ 0; 1; 2; 3; 4 ]);
    Helpers.qtest ~count:50 "degenerate split (all weight one side) is a valid instance"
      (Helpers.ring_gen ~nmax:7 ()) (fun g ->
        let u = Sybil.split_utility g ~v:0 ~w1:(Graph.weight g 0) in
        Q.sign u >= 0);
    (* An independent k = 2 reference: Sybil_general builds the post-attack
       graph from a neighbour partition and shares no code with Sybil. *)
    Helpers.qtest ~count:80 "split_utility = Sybil_general at groups [[a]; [b]]"
      QCheck2.Gen.(pair (Helpers.ring_gen ~nmax:8 ()) (int_bound 1000))
      (fun (g, r) ->
        let v = r mod Graph.n g in
        let w = Graph.weight g v in
        let nb = Graph.neighbors g v in
        let a = Int.min nb.(0) nb.(1) and b = Int.max nb.(0) nb.(1) in
        List.for_all
          (fun i ->
            let w1 = Q.div_int (Q.mul_int w i) 5 in
            Q.equal
              (Sybil.split_utility g ~v ~w1)
              (Sybil_general.attack_utility g ~v
                 { Sybil_general.groups = [| [ a ]; [ b ] |];
                   weights = [| w1; Q.sub w w1 |] }))
          [ 0; 1; 2; 3; 4; 5 ]);
  ]

let () =
  Alcotest.run "sybil"
    [
      ( "unit",
        [
          Alcotest.test_case "split shape" `Quick test_split_shape;
          Alcotest.test_case "split validation" `Quick test_split_validation;
          Alcotest.test_case "split_free" `Quick test_split_free_total;
          Alcotest.test_case "honest utility" `Quick test_honest_utility;
          Alcotest.test_case "initial split total" `Quick test_initial_split_ships_everything;
          Alcotest.test_case "Lemma 9 known rings" `Quick test_lemma9_fig_family;
          Alcotest.test_case "split shape, three identities" `Quick
            test_split_shape_k3;
        ] );
      ("properties", props);
    ]
