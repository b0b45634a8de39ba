(* Shared helpers for the test suites: qcheck generators and alcotest
   testables for the project's core types. *)

module Q = Rational

let q_testable = Alcotest.testable Q.pp Q.equal
let vset_testable = Alcotest.testable Vset.pp Vset.equal

let check_q = Alcotest.check q_testable
let check_vset = Alcotest.check vset_testable

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

let bigint_gen =
  (* Mix small ints with multi-limb magnitudes built from digit strings. *)
  QCheck2.Gen.(
    oneof
      [
        map Bigint.of_int (int_range (-1_000_000) 1_000_000);
        map Bigint.of_int int;
        ( map2
            (fun digits neg ->
              let s = String.concat "" (List.map string_of_int digits) in
              let s = if s = "" then "0" else s in
              let b = Bigint.of_string s in
              if neg then Bigint.neg b else b)
            (list_size (int_range 1 40) (int_range 0 9))
            bool );
      ])

let rational_gen =
  QCheck2.Gen.(
    map2
      (fun n d -> Q.make (Bigint.of_int n) (Bigint.of_int (1 + abs d)))
      (int_range (-10_000) 10_000)
      (int_range 0 10_000))

let pos_weight_gen = QCheck2.Gen.int_range 1 50

(* A ring with n in [3, nmax] and positive integer weights. *)
let ring_gen ?(nmax = 9) ?(wmax = 50) () =
  QCheck2.Gen.(
    int_range 3 nmax >>= fun n ->
    list_size (return n) (int_range 1 wmax) >>= fun ws ->
    return (Generators.ring_of_ints (Array.of_list ws)))

(* A path with n in [2, nmax]; weights may include zeros (Sybil splits
   produce zero-weight endpoints). *)
let path_gen ?(nmax = 9) ?(wmax = 50) ?(allow_zero = false) () =
  QCheck2.Gen.(
    int_range 2 nmax >>= fun n ->
    list_size (return n) (int_range (if allow_zero then 0 else 1) wmax)
    >>= fun ws ->
    let ws = Array.of_list ws in
    (* keep at least one positive weight *)
    if Array.for_all (fun w -> w = 0) ws then ws.(0) <- 1;
    return (Generators.path_of_ints ws))

(* A connected-ish random graph with positive weights. *)
let graph_gen ?(nmax = 8) ?(wmax = 20) () =
  QCheck2.Gen.(
    int_range 3 nmax >>= fun n ->
    list_size (return n) (int_range 1 wmax) >>= fun ws ->
    int >>= fun seed ->
    let rng = Prng.create seed in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.float rng < 0.45 then edges := (u, v) :: !edges
      done
    done;
    (* guarantee no isolated vertex: chain every vertex to its successor
       with probability-independent fallback *)
    for u = 0 to n - 2 do
      if
        not
          (List.exists (fun (a, b) -> a = u || b = u) !edges)
      then edges := (u, u + 1) :: !edges
    done;
    if not (List.exists (fun (a, b) -> a = n - 1 || b = n - 1) !edges) then
      edges := (n - 2, n - 1) :: !edges;
    return
      (Graph.create
         ~weights:(Array.of_list (List.map Q.of_int ws))
         ~edges:!edges))

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* [h(α) = min_S w(Γ(S)) − α·w(S)] over every subset S of [mask], ∅
   included, with Γ taken inside the mask, and the maximal minimiser as
   the union of all minimisers.  Shares no code with the DP solvers, so
   it serves as their reference on small masks. *)
let brute_h_and_argmax g ~mask ~alpha =
  let vs = Array.of_list (Vset.elements mask) in
  let m = Array.length vs in
  let pos v =
    let rec go i = if i >= m then -1 else if vs.(i) = v then i else go (i + 1) in
    go 0
  in
  let nbits =
    Array.map
      (fun v ->
        Array.fold_left
          (fun acc u ->
            let j = pos u in
            if j >= 0 then acc lor (1 lsl j) else acc)
          0 (Graph.neighbors g v))
      vs
  in
  let weight_of bits =
    let acc = ref Q.zero in
    Array.iteri
      (fun i v -> if bits land (1 lsl i) <> 0 then acc := Q.add !acc (Graph.weight g v))
      vs;
    !acc
  in
  let best = ref Q.zero and union = ref 0 in
  for s = 0 to (1 lsl m) - 1 do
    let gamma = ref 0 in
    Array.iteri (fun i nb -> if s land (1 lsl i) <> 0 then gamma := !gamma lor nb) nbits;
    let cost = Q.sub (weight_of !gamma) (Q.mul alpha (weight_of s)) in
    let c = Q.compare cost !best in
    if c < 0 then begin
      best := cost;
      union := s
    end
    else if c = 0 then union := !union lor s
  done;
  let smax = ref Vset.empty in
  Array.iteri (fun i v -> if !union land (1 lsl i) <> 0 then smax := Vset.add v !smax) vs;
  (!best, !smax)

let qtest ?(count = 100) name gen prop =
  (* Fixed seed: property tests are deterministic run-to-run; failures are
     therefore always reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Grid reference for the exact split-parameter walk                   *)
(* ------------------------------------------------------------------ *)

(* The decomposition of the split path [P_v(w1, w_v − w1)]. *)
let split_decomposition g ~v w1 =
  let w = Graph.weight g v in
  let s = Sybil.split g { Sybil.v; weights = [| w1; Q.sub w w1 |] } in
  Decompose.compute s.Sybil.graph

(* Decompose the split path at [grid + 1] equispaced points of
   [0, w_v] and return the cells [(lo, hi)] whose end decompositions
   differ, in order.  Each such cell holds at least one change of the
   split path's decomposition; a cell hiding an even number of changes
   that restore the same decomposition is invisible here.  Shares no
   code with [Breakpoints]' exact walk, so it serves as its reference. *)
let split_grid_changes g ~v ~grid =
  let w = Graph.weight g v in
  let points =
    List.init (grid + 1) (fun i ->
        let x = Q.div_int (Q.mul_int w i) grid in
        (x, split_decomposition g ~v x))
  in
  let rec cells = function
    | (a, da) :: ((b, db) :: _ as rest) ->
        if Decompose.same_structure da db then cells rest
        else (a, b) :: cells rest
    | _ -> []
  in
  if Q.is_zero w then [] else cells points
