module Q = Rational

type vector = { v : int; weights : Q.t array }
type split = { graph : Graph.t; ids : int array }

let ring_neighbors g v =
  match Graph.neighbors g v with
  | [| a; b |] -> (a, b)
  | _ -> invalid_arg "Sybil: vertex does not have degree 2"

let split_free g { v; weights = ws } =
  if not (Graph.is_ring g) then invalid_arg "Sybil.split: not a ring";
  let k = Array.length ws in
  if k < 2 then invalid_arg "Sybil.split: fewer than 2 identities";
  Array.iter
    (fun w ->
      if Q.sign w < 0 then invalid_arg "Sybil.split: negative identity weight")
    ws;
  let n = Graph.n g in
  let _a, b = ring_neighbors g v in
  (* v keeps its id and the edge to the smaller neighbour id; the fresh
     identities n, n+1, …, n+k−2 form a chain hanging off b, so the
     identities sit consecutively along the opened ring
     v¹ — a — … — b — v² — … — v^k and every vertex keeps degree ≤ 2. *)
  let weights = Array.make (n + k - 1) Q.zero in
  for u = 0 to n - 1 do
    weights.(u) <- Graph.weight g u
  done;
  weights.(v) <- ws.(0);
  for j = 1 to k - 1 do
    weights.(n + j - 1) <- ws.(j)
  done;
  let added =
    List.init (k - 1) (fun j -> if j = 0 then (n, b) else (n + j, n + j - 1))
  in
  let edges =
    added
    @ List.filter (fun (x, y) -> not ((x = v && y = b) || (x = b && y = v)))
        (Graph.edges g)
  in
  let ids = Array.init k (fun j -> if j = 0 then v else n + j - 1) in
  { graph = Graph.create ~weights ~edges; ids }

let split g ({ v; weights = ws } as s) =
  let total = Array.fold_left Q.add Q.zero ws in
  if not (Q.equal total (Graph.weight g v)) then
    invalid_arg "Sybil.split: weights must sum to w_v";
  split_free g s

let utility ?ctx g s =
  let { graph; ids } = split g s in
  let d = Decompose.compute ?ctx graph in
  Array.fold_left (fun acc id -> Q.add acc (Utility.of_vertex graph d id))
    Q.zero ids

let split_utility ?ctx g ~v ~w1 =
  utility ?ctx g { v; weights = [| w1; Q.sub (Graph.weight g v) w1 |] }

let honest_utility ?ctx g ~v =
  let d = Decompose.compute ?ctx g in
  Utility.of_vertex g d v

let initial_split ?ctx g ~v =
  if not (Graph.is_ring g) then invalid_arg "Sybil.initial_split: not a ring";
  let a, b = ring_neighbors g v in
  let alloc = Allocation.compute ?ctx g in
  (Allocation.amount alloc ~src:v ~dst:a, Allocation.amount alloc ~src:v ~dst:b)

let lattice ~w ~grid windows =
  let clamp x = Q.max Q.zero (Q.min w x) in
  let axes =
    Array.map
      (fun (lo, hi) ->
        let step = Q.div_int (Q.sub hi lo) grid in
        if Q.is_zero step then [ lo ]
        else
          List.init (grid + 1) (fun i -> clamp (Q.add lo (Q.mul_int step i))))
      windows
  in
  let rec cart i =
    if i = Array.length axes then [ [] ]
    else
      let rest = cart (i + 1) in
      List.concat_map (fun x -> List.map (fun tl -> x :: tl) rest) axes.(i)
  in
  List.filter_map
    (fun free ->
      let sum = List.fold_left Q.add Q.zero free in
      if Q.compare sum w > 0 then None
      else Some (Array.of_list (free @ [ Q.sub w sum ])))
    (cart 0)
