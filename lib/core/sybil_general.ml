module Q = Rational

type spec = { groups : int list array; weights : Q.t array }
type split = Sybil.split = { graph : Graph.t; ids : int array }

let apply g ~v spec =
  let m = Array.length spec.groups in
  if m < 1 then invalid_arg "Sybil_general.apply: no identities";
  if Array.length spec.weights <> m then
    invalid_arg "Sybil_general.apply: weights/groups length mismatch";
  Array.iter
    (fun w -> if Q.sign w < 0 then invalid_arg "Sybil_general.apply: negative weight")
    spec.weights;
  if
    not
      (Q.equal
         (Array.fold_left Q.add Q.zero spec.weights)
         (Graph.weight g v))
  then invalid_arg "Sybil_general.apply: weights must sum to w_v";
  (* groups must partition the neighbour set into non-empty groups *)
  let nbrs = Array.to_list (Graph.neighbors g v) in
  let flat = List.concat (Array.to_list spec.groups) in
  if List.exists (fun grp -> List.is_empty grp) (Array.to_list spec.groups)
  then invalid_arg "Sybil_general.apply: empty identity group";
  if
    (not
       (List.equal Int.equal (List.sort Int.compare flat)
          (List.sort Int.compare nbrs)))
    || List.length flat <> List.length nbrs
  then invalid_arg "Sybil_general.apply: groups must partition the neighbours";
  let n = Graph.n g in
  (* identity 0 reuses v's id; identities 1..m-1 are n, n+1, ... *)
  let ids = Array.init m (fun i -> if i = 0 then v else n + i - 1) in
  let weights = Array.make (n + m - 1) Q.zero in
  for u = 0 to n - 1 do
    weights.(u) <- Graph.weight g u
  done;
  Array.iteri (fun i id -> weights.(id) <- spec.weights.(i)) ids;
  let keep =
    List.filter
      (fun (a, b) -> not ((a = v && List.mem b nbrs) || (b = v && List.mem a nbrs)))
      (Graph.edges g)
  in
  let added =
    Array.to_list
      (Array.mapi
         (fun i grp -> List.map (fun u -> (ids.(i), u)) grp)
         spec.groups)
    |> List.concat
  in
  { graph = Graph.create ~weights ~edges:(keep @ added); ids }

let attack_utility ?ctx g ~v spec =
  let s = apply g ~v spec in
  let d = Decompose.compute ?ctx s.graph in
  Array.fold_left
    (fun acc id -> Q.add acc (Utility.of_vertex s.graph d id))
    Q.zero s.ids

(* All set partitions of [items] into at most [max_groups] non-empty
   groups.  Classic recursive construction: each element either joins an
   existing group or opens a new one. *)
let partitions items ~max_groups =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let subs = go rest in
        List.concat_map
          (fun partition ->
            let with_new =
              if List.length partition < max_groups then
                [ [ x ] :: partition ]
              else []
            in
            let joined =
              List.mapi
                (fun i _ ->
                  List.mapi
                    (fun j grp -> if i = j then x :: grp else grp)
                    partition)
                partition
            in
            with_new @ joined)
          subs
  in
  go items

(* [?grid] here is the per-dimension simplex resolution over m identity
   weights (cost grows as grid^m), not the ctx sweep grid — reusing
   ctx.grid (32) would blow the enumeration up, so it stays a distinct,
   recorded exemption from the config-drift rule. *)
let[@lint.allow "config-drift"] best_attack ?ctx ?(grid = 6) ?(max_degree = 5)
    g ~v =
  let d_v = Graph.degree g v in
  if d_v > max_degree then
    invalid_arg "Sybil_general.best_attack: degree exceeds max_degree";
  if d_v = 0 then invalid_arg "Sybil_general.best_attack: isolated vertex";
  let honest = Utility.of_vertex g (Decompose.compute ?ctx g) v in
  let nbrs = Array.to_list (Graph.neighbors g v) in
  let w = Graph.weight g v in
  let best = ref None in
  List.iter
    (fun partition ->
      let m = List.length partition in
      let groups = Array.of_list partition in
      let weight_choices =
        Sybil.lattice ~w ~grid (Array.make (m - 1) (Q.zero, w))
      in
      List.iter
        (fun weights ->
          let spec = { groups; weights } in
          let u = attack_utility ?ctx g ~v spec in
          match !best with
          | Some (_, bu, _) when Q.compare u bu <= 0 -> ()
          | _ ->
              let ratio =
                Qx.to_q_exn (Incentive.ratio ~utility:(Qx.of_q u) ~honest)
              in
              best := Some (spec, u, ratio))
        weight_choices)
    (partitions nbrs ~max_groups:d_v);
  match !best with
  | Some r -> r
  | None -> invalid_arg "Sybil_general.best_attack: no candidate"
