module Q = Rational

(* ------------------------------------------------------------------ *)
(* Components of a masked degree-≤2 graph                              *)
(* ------------------------------------------------------------------ *)

let masked_neighbors g mask v =
  Array.to_list (Graph.neighbors g v) |> List.filter (fun u -> Vset.mem u mask)

let supports g ~mask =
  Vset.for_all (fun v -> List.length (masked_neighbors g mask v) <= 2) mask

type component = { verts : int array; cycle : bool }

let components g ~mask =
  let visited = Tables.Itbl.create 16 in
  let comps = ref [] in
  Vset.iter
    (fun v0 ->
      if not (Tables.Itbl.mem visited v0) then begin
        (* Collect the component of v0. *)
        let members = ref [] in
        let rec collect v =
          if not (Tables.Itbl.mem visited v) then begin
            Tables.Itbl.add visited v ();
            members := v :: !members;
            List.iter collect (masked_neighbors g mask v)
          end
        in
        collect v0;
        let members = !members in
        let degree v = List.length (masked_neighbors g mask v) in
        (* a path is walked from an endpoint, a cycle from any vertex *)
        let start, cycle =
          match List.find_opt (fun v -> degree v <= 1) members with
          | Some e -> (e, false)
          | None -> (List.hd members, true)
        in
        let rec walk prev cur acc =
          let acc = cur :: acc in
          match List.filter (fun u -> u <> prev) (masked_neighbors g mask cur) with
          | next :: _ when next <> start -> walk cur next acc
          | _ -> List.rev acc
        in
        comps := { verts = Array.of_list (walk (-1) start []); cycle } :: !comps
      end)
    mask;
  !comps

(* ------------------------------------------------------------------ *)
(* The stage-cost DP, over any cost domain                             *)
(* ------------------------------------------------------------------ *)

module type COST = sig
  type t

  val inf : t
  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val min : t -> t -> t
end

(* States are indexed 2·s + counted: s is the vertex's S-membership,
   counted whether its Γ(S) charge has already been paid from the left.
   A row holds the four states of one position.

   The forward row at position i is the best prefix cost over 0..i; the
   backward row is the best cost of the transitions i+1..k−1 given the
   state at i.  The transition into position i+1 charges gam(i) when
   s_{i+1} picks up an uncounted neighbour, gam(i+1) when s_i is
   selected, and −sch(i+1) when s_{i+1} is selected.  The suffix
   depends on the prefix only through the state, so the forced minimum
   at u is the 2-way combine min over c of F_u(1, c) + B_u(1, c); the
   forward sweep therefore stores only the s = 1 pair per position.

   Each [min] keeps its first argument on ties and compares the same
   operands in the same order on every run, which the certificate
   instance in [Breakpoints] relies on: it records every comparison. *)
module Make (C : COST) = struct
  (* One sweep pair with the forward row at position 0 given by [init]
     and the backward row at position k−1 by [term]. *)
  let sweep ~gam ~sch ~init:(i0, i1, i2, i3) ~term:(t0, t1, t2, t3) =
    let k = Array.length gam in
    let f2 = Array.make k C.inf and f3 = Array.make k C.inf in
    let c0 = ref i0 and c1 = ref i1 and c2 = ref i2 and c3 = ref i3 in
    f2.(0) <- i2;
    f3.(0) <- i3;
    for i = 1 to k - 1 do
      let a0 = !c0 and a1 = !c1 and a2 = !c2 and a3 = !c3 in
      let gp = gam.(i - 1) and gc = gam.(i) and sc = sch.(i) in
      c0 := C.min a0 a1;
      c1 := C.add (C.min a2 a3) gc;
      c2 := C.sub (C.min (C.add a0 gp) a1) sc;
      c3 := C.sub (C.add (C.min (C.add a2 gp) a3) gc) sc;
      f2.(i) <- !c2;
      f3.(i) <- !c3
    done;
    let unforced =
      List.fold_left
        (fun acc (f, t) -> C.min acc (C.add f t))
        C.inf
        [ (!c0, t0); (!c1, t1); (!c2, t2); (!c3, t3) ]
    in
    let forced = Array.make k C.inf in
    let b0 = ref t0 and b1 = ref t1 and b2 = ref t2 and b3 = ref t3 in
    for i = k - 1 downto 0 do
      if i < k - 1 then begin
        let r0 = !b0 and r1 = !b1 and r2 = !b2 and r3 = !b3 in
        let gi = gam.(i) and gn = gam.(i + 1) and sn = sch.(i + 1) in
        let r2s = C.sub r2 sn in
        b0 := C.min r0 (C.add r2s gi);
        b1 := C.min r0 r2s;
        b2 := C.add (C.min r1 (C.sub (C.add r3 gi) sn)) gn;
        b3 := C.add (C.min r1 (C.sub r3 sn)) gn
      end;
      forced.(i) <- C.min (C.add f2.(i) !b2) (C.add f3.(i) !b3)
    done;
    (unforced, forced)

  (* [gam.(i)] is position i's Γ charge, [sch.(i)] its S credit (both
     already in cost units).  Returns the minimum over all subsets, ∅
     included, and per position the minimum with that position in S. *)
  let path ~gam ~sch =
    sweep ~gam ~sch
      ~init:(C.zero, C.inf, C.sub C.zero sch.(0), C.inf)
      ~term:(C.zero, C.zero, C.zero, C.zero)

  (* Cycles (length ≥ 3, position k−1 adjacent to 0): cut the wrap edge
     and condition on (a, b) = (s_0, s_{k−1}).  The wrap charges v_0
     when b, which the initial row pre-pays as "counted", and v_{k−1}
     when a, unless already paid from the left, which the terminal row
     adds; states violating s_{k−1} = b are unreachable there. *)
  let cycle ~gam ~sch =
    let k = Array.length gam in
    let only st x =
      ( (if st = 0 then x else C.inf),
        (if st = 1 then x else C.inf),
        (if st = 2 then x else C.inf),
        if st = 3 then x else C.inf )
    in
    let combo (a, b) =
      let s0 = if a then C.sub C.zero sch.(0) else C.zero in
      let init = only ((if a then 2 else 0) + if b then 1 else 0)
          (if b then C.add s0 gam.(0) else s0)
      in
      let wrap = if a then gam.(k - 1) else C.zero in
      let term =
        if b then (C.inf, C.inf, wrap, C.zero) else (wrap, C.zero, C.inf, C.inf)
      in
      sweep ~gam ~sch ~init ~term
    in
    let m, forced = combo (false, false) in
    List.fold_left
      (fun (m, forced) ab ->
        let m', forced' = combo ab in
        (C.min m m', Array.map2 C.min forced forced'))
      (m, forced)
      [ (false, true); (true, false); (true, true) ]
end

(* ------------------------------------------------------------------ *)
(* The exact-rational instance                                         *)
(* ------------------------------------------------------------------ *)

module Qdp = Make (struct
  type t = Q.t option

  let inf = None
  let zero = Some Q.zero

  let add a b =
    match (a, b) with Some x, Some y -> Some (Q.add x y) | _ -> None

  let sub a b =
    match (a, b) with Some x, Some y -> Some (Q.sub x y) | _ -> None

  let min a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> if Q.compare y x < 0 then b else a
end)

let get = function
  | Some x -> x
  | None -> Ringshare_error.(error (Infeasible_dp "Chain_fast: empty table"))

(* (component minimum, members of the maximal minimiser) — a vertex is a
   member iff forcing it into S still attains the minimum (minimisers
   are closed under union). *)
let solve dp g ~alpha verts =
  let ws = Array.map (Graph.weight g) verts in
  let gam = Array.map Option.some ws
  and sch = Array.map (fun w -> Some (Q.mul alpha w)) ws in
  let m, forced = dp ~gam ~sch in
  let m = get m in
  let members = ref [] in
  Array.iteri
    (fun i f ->
      match f with
      | Some f when Q.equal f m -> members := verts.(i) :: !members
      | _ -> ())
    forced;
  (m, !members)

let solve_path g ~alpha verts = solve Qdp.path g ~alpha verts
let solve_cycle g ~alpha verts = solve Qdp.cycle g ~alpha verts

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let c_oracle =
  Obs.Counter.make ~subsystem:"decomposition" "fastchain_oracle_calls"

let fp_iter = Failpoint.register "solver.fastchain.iter"

let h_and_argmax ?(budget = Budget.unlimited) g ~mask ~alpha =
  if not (supports g ~mask) then
    invalid_arg "Chain_fast: masked graph has a vertex of degree > 2";
  Obs.Counter.incr c_oracle;
  let h = ref Q.zero in
  let s_max = ref Vset.empty in
  List.iter
    (fun comp ->
      Failpoint.hit fp_iter;
      Budget.tick ~cost:(1 + Array.length comp.verts) budget;
      let m, members =
        if comp.cycle then solve_cycle g ~alpha comp.verts
        else solve_path g ~alpha comp.verts
      in
      h := Q.add !h m;
      List.iter (fun v -> s_max := Vset.add v !s_max) members)
    (components g ~mask);
  (!h, !s_max)

let maximal_bottleneck ?budget g ~mask =
  if Vset.is_empty mask then invalid_arg "Chain_fast: empty mask";
  let total = Graph.weight_of_set g mask in
  if Q.is_zero total then mask
  else
    let init = Graph.alpha_of_set ~mask g mask in
    let b, _alpha =
      Dinkelbach.solve ?budget
        ~oracle:(fun ~alpha -> h_and_argmax ?budget g ~mask ~alpha)
        ~alpha_of:(fun s -> Graph.alpha_of_set ~mask g s)
        init
    in
    b

let maximal_bottleneck_r ?budget g ~mask =
  Ringshare_error.capture (fun () -> maximal_bottleneck ?budget g ~mask)
