module Q = Rational

type attack = {
  v : int;
  w1 : Q.t;
  weights : Q.t array;
  utility : Q.t;
  honest : Q.t;
  ratio : Q.t;
}

type exact_attack = {
  witness : attack;
  w1_exact : Qx.t;
  utility_exact : Qx.t;
  ratio_exact : Qx.t;
  pieces : int;
  events : int;
}

let ratio ~utility ~honest =
  if Q.is_zero honest then
    if Qx.sign utility = 0 then Qx.of_q Q.one else Qx.of_q Q.inf
  else Qx.div_q utility honest

let attack_of ~v ~weights ~utility ~honest =
  { v; w1 = weights.(0); weights; utility; honest;
    ratio = Qx.to_q_exn (ratio ~utility:(Qx.of_q utility) ~honest) }

(* A 2-split as its weight vector. *)
let pair w w1 = [| w1; Q.sub w w1 |]

let clamp lo hi x = Q.max lo (Q.min hi x)

let c_split_calls = Obs.Counter.make ~subsystem:"incentive" "best_split_calls"
let c_lookups = Obs.Counter.make ~subsystem:"incentive" "memo_lookups"
let c_hits = Obs.Counter.make ~subsystem:"incentive" "memo_hits"
let c_misses = Obs.Counter.make ~subsystem:"incentive" "memo_misses"
let c_sweep_points = Obs.Counter.make ~subsystem:"incentive" "sweep_points"

let c_sweep_deduped =
  Obs.Counter.make ~subsystem:"incentive" "sweep_points_deduped"

let c_attack_calls = Obs.Counter.make ~subsystem:"incentive" "best_attack_calls"
let c_honest_shared = Obs.Counter.make ~subsystem:"incentive" "honest_shared"
let g_cache = Obs.Gauge.make ~subsystem:"incentive" "max_cache_size"
let c_exact_calls = Obs.Counter.make ~subsystem:"incentive" "exact_sweep_calls"
let c_exact_events = Obs.Counter.make ~subsystem:"incentive" "exact_events"
let c_exact_pieces = Obs.Counter.make ~subsystem:"incentive" "exact_pieces"

let c_exact_criticals =
  Obs.Counter.make ~subsystem:"incentive" "exact_criticals"

let c_exact_evals = Obs.Counter.make ~subsystem:"incentive" "exact_evals"
let c_kway_rounds = Obs.Counter.make ~subsystem:"incentive" "kway_rounds"

let c_kway_exact_events =
  Obs.Counter.make ~subsystem:"incentive" "kway_exact_events"

(* Explicit [?budget] wins over the context's. *)
let with_budget_arg budget ctx =
  match budget with
  | Some b -> Engine.Ctx.with_budget b ctx
  | None -> ctx

(* Domain fan-out only pays for itself once each parallel task is heavy
   enough: below these floors the spawn + minor-heap contention overhead
   dominates (BENCH_ringshare.json showed best-attack/n=8/domains=2 at
   grid 8 running ~1.5x slower than domains=1), so small sweeps fall
   back to the serial path — which computes bit-identical results by
   construction.  [parallel_points_min] gates one memo batch's fresh
   points; [parallel_evals_min] gates the 2-split grid's per-vertex
   fan-out by the expected evaluations per vertex. *)
let parallel_points_min = 16
let parallel_evals_min = 32

(* ------------------------------------------------------------------ *)
(* Shared search machinery                                             *)
(* ------------------------------------------------------------------ *)

(* What every per-vertex search starts from. *)
type search = {
  ctx : Engine.Ctx.t;  (** armed; an explicit [?budget] already applied *)
  budget : Budget.t;
  dctx : Engine.Ctx.t;
      (** un-budgeted: evaluations are metered once per distinct point,
          the decompositions they trigger are not *)
  w : Q.t;  (** the attacker's weight *)
  cost : int;  (** budget charge of one mechanism evaluation *)
  honest : Q.t;
}

(* The one search prologue: arm the context, give it a request-local
   decomposition cache when asked and none is shared (the exact sweeps
   revisit boundary splits), open the span, tick [calls], and compute
   the honest utility unless the caller shares it. *)
let with_search ~span ?calls ?(local_cache = false) ?ctx ?budget ?honest g
    ~v body =
  let ctx = Engine.Ctx.arm (with_budget_arg budget (Engine.Ctx.get ctx)) in
  let ctx =
    match ctx.Engine.Ctx.cache with
    | None when local_cache ->
        Engine.Ctx.with_cache (Engine.Cache.create ~capacity:128 ()) ctx
    | _ -> ctx
  in
  Obs.Span.with_ span @@ fun () ->
  Option.iter Obs.Counter.incr calls;
  let dctx = Engine.Ctx.without_budget ctx in
  let honest =
    match honest with
    | Some u -> u
    | None -> Sybil.honest_utility ~ctx:dctx g ~v
  in
  body
    {
      ctx;
      budget = Engine.Ctx.budget_or_unlimited ctx;
      dctx;
      w = Graph.weight g v;
      cost = 1 + Graph.n g;
      honest;
    }

(* The per-search memo of [v]'s split vectors.  Each distinct vector is
   evaluated — and budget-charged [cost] — exactly once per search.
   Callers pass deduplicated batches, so hits + misses = lookups by
   construction.  Rationals are kept normalised, so Q.equal / Q.hash
   (pointwise on vectors) are semantic. *)
module Memo = struct
  module Tbl = Hashtbl.Make (struct
    type t = Q.t array

    let equal a b =
      Array.length a = Array.length b
      &&
      let rec go i =
        i = Array.length a || (Q.equal a.(i) b.(i) && go (i + 1))
      in
      go 0

    let hash a = Array.fold_left (fun acc x -> (acc * 31) + Q.hash x) 17 a
  end)

  type t = { tbl : Q.t Tbl.t; batch : Q.t array list -> unit }

  let create s g ~v =
    let tbl = Tbl.create 64 in
    let eval weights =
      Budget.tick ~cost:s.cost s.budget;
      Sybil.utility ~ctx:s.dctx g { Sybil.v; weights }
    in
    let domains = s.ctx.Engine.Ctx.domains in
    let batch keys =
      let fresh = List.filter (fun key -> not (Tbl.mem tbl key)) keys in
      if Engine.Ctx.obs_enabled s.ctx then begin
        let lookups = List.length keys and misses = List.length fresh in
        Obs.Counter.add c_lookups lookups;
        Obs.Counter.add c_misses misses;
        Obs.Counter.add c_hits (lookups - misses)
      end;
      match fresh with
      | [] -> ()
      | [ key ] -> Tbl.replace tbl key (eval key)
      | _ when domains > 1 && List.length fresh >= parallel_points_min ->
          (* independent decompositions; the shared budget counter is
             atomic and results land by index, so the filled memo is
             identical to the sequential one *)
          let arr = Array.of_list fresh in
          let us = Parwork.map ~domains eval arr in
          Array.iteri (fun i u -> Tbl.replace tbl arr.(i) u) us
      | _ -> List.iter (fun key -> Tbl.replace tbl key (eval key)) fresh
    in
    { tbl; batch }

  let get m key =
    match Tbl.find_opt m.tbl key with Some u -> u | None -> assert false

  let size m = Tbl.length m.tbl
end

let vec_compare a b =
  let rec go i =
    if i = Array.length a then 0
    else match Q.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

(* Fold [points] into the running best [acc]: a point replaces it only
   on strict improvement, so the first point of a utility tie wins. *)
let first_best utility points acc =
  List.fold_left
    (fun (bx, bu) x ->
      let u = utility x in
      if Q.compare u bu > 0 then (x, u) else (bx, bu))
    acc points

(* Decomposition-change events along a piece tiling. *)
let structure_changes pieces =
  let rec count = function
    | (a : Breakpoints.exact_piece) :: (b :: _ as rest) ->
        (if
           Decompose.same_structure a.Breakpoints.structure
             b.Breakpoints.structure
         then 0
         else 1)
        + count rest
    | _ -> 0
  in
  count pieces

(* Denominator of the dyadic rationals that stand in for an irrational
   point. *)
let witness_denom = 1 lsl 40

(* The two dyadic rationals at denominator 2^40 bracketing [x]. *)
let dyadic_bracket x =
  let scaled = Qx.mul_q x (Q.of_int witness_denom) in
  let lo = Q.make (Qx.floor scaled) (Bigint.of_int witness_denom) in
  (lo, Q.add lo (Q.of_ints 1 witness_denom))

(* ------------------------------------------------------------------ *)
(* Grid sweep over the (k−1)-simplex                                   *)
(* ------------------------------------------------------------------ *)

(* Tick the sweep counters for one batch of lattice points. *)
let count_points s points deduped =
  if Engine.Ctx.obs_enabled s.ctx then begin
    Obs.Counter.add c_sweep_points (List.length points);
    Obs.Counter.add c_sweep_deduped (List.length deduped)
  end

(* The free coordinates 0..k−2 each sweep a [grid]-point window
   ([Sybil.lattice]), and each zoom round shrinks every free
   coordinate's window ±step around the best vector.  At two identities
   the lattice is the [grid]-point subdivision of [w1]'s window.  The
   seed is the one branch on [k]: Lemma 9's initial split, whose
   utility is the honest one (no evaluation), at two identities; the
   evaluated uniform vector above. *)
let grid_sweep ?ctx ?budget ?honest g ~v =
  let { Engine.Ctx.grid; refine; identities = k; _ } = Engine.Ctx.get ctx in
  if grid < 2 || refine < 0 then
    invalid_arg "Incentive.best_split: grid < 2 or refine < 0";
  with_search ~span:"best_split" ~calls:c_split_calls ?ctx ?budget ?honest g
    ~v
  @@ fun s ->
  let w = s.w in
  (* Zoom rounds overlap (the previous best is the centre of the next
     window) and the seed collides with lattice points; the memo
     decomposes each of them once. *)
  let memo = Memo.create s g ~v in
  let sweep windows extras acc =
    let points = extras @ Sybil.lattice ~w ~grid windows in
    (* Evaluate (and budget-charge) each distinct point once, but fold in
       the extras-first order: with the strict [>] comparison the first
       point of a utility tie wins. *)
    let deduped = List.sort_uniq vec_compare points in
    count_points s points deduped;
    memo.batch deduped;
    first_best (Memo.get memo) points acc
  in
  let rec zoom windows extras rounds (bv, bu) =
    let bv, bu = sweep windows extras (bv, bu) in
    if rounds = 0 then (bv, bu)
    else
      let steps =
        Array.map (fun (lo, hi) -> Q.div_int (Q.sub hi lo) grid) windows
      in
      if Array.for_all Q.is_zero steps then (bv, bu)
      else
        let windows =
          Array.mapi
            (fun i step ->
              ( clamp Q.zero w (Q.sub bv.(i) step),
                clamp Q.zero w (Q.add bv.(i) step) ))
            steps
        in
        zoom windows [] (rounds - 1) (bv, bu)
  in
  let seed =
    if k = 2 then
      let w10, _ = Sybil.initial_split ~ctx:s.dctx g ~v in
      (pair w w10, s.honest)
    else begin
      let uniform = Array.make k (Q.div_int w k) in
      memo.batch [ uniform ];
      (uniform, Memo.get memo uniform)
    end
  in
  let bv, bu =
    zoom (Array.make (k - 1) (Q.zero, w)) [ fst seed ] refine seed
  in
  if Engine.Ctx.obs_enabled s.ctx then
    Obs.Gauge.set_max g_cache (Memo.size memo);
  attack_of ~v ~weights:bv ~utility:bu ~honest:s.honest

(* ------------------------------------------------------------------ *)
(* Two identities, exact event-driven sweep (DESIGN §16)               *)
(* ------------------------------------------------------------------ *)

let best_split_exact ?ctx ?budget ?honest g ~v =
  with_search ~span:"best_split_exact" ~calls:c_exact_calls ~local_cache:true
    ?ctx ?budget ?honest g ~v
  @@ fun s ->
  let w = s.w and honest = s.honest in
  let mech w1 =
    Budget.tick ~cost:s.cost s.budget;
    Sybil.split_utility ~ctx:s.dctx g ~v ~w1
  in
  let witness_at w1 u = attack_of ~v ~weights:(pair w w1) ~utility:u ~honest in
  if Q.is_zero w then begin
    let u = mech Q.zero in
    {
      witness = witness_at Q.zero u;
      w1_exact = Qx.of_q Q.zero;
      utility_exact = Qx.of_q u;
      ratio_exact = ratio ~utility:(Qx.of_q u) ~honest;
      pieces = 0;
      events = 0;
    }
  end
  else begin
    let n = Graph.n g in
    let pieces = Breakpoints.exact_split_pieces ~ctx:s.ctx g ~v in
    let events = structure_changes pieces in
    let evals = ref 0 and criticals = ref 0 in
    let best = ref None in
    (* strict improvement only: the first candidate of a utility tie —
       walking the pieces left to right, each piece's candidates in
       [Symbolic.maximise_piece]'s order — is the reported optimum *)
    let consider x u =
      match !best with
      | Some (_, bu) when Qx.compare u bu <= 0 -> ()
      | _ -> best := Some (x, u)
    in
    List.iter
      (fun (p : Breakpoints.exact_piece) ->
        Budget.tick ~cost:s.cost s.budget;
        if Qx.equal p.Breakpoints.xlo p.Breakpoints.xhi then begin
          (* point piece: its structure lives at one rational point, so
             evaluate the mechanism there directly *)
          incr evals;
          consider (Qx.of_q p.sample) (Qx.of_q (mech p.sample))
        end
        else begin
          let m =
            Symbolic.maximise_piece
              (Symbolic.slice_utility_function g ~v1:v ~v2:n ~total:w
                 ~structure:p.structure ~ids:[| v; n |])
              p
          in
          evals := !evals + m.Symbolic.evals;
          criticals := !criticals + m.Symbolic.criticals;
          consider m.Symbolic.arg m.Symbolic.value
        end)
      pieces;
    let w1x, ux = match !best with Some b -> b | None -> assert false in
    let witness =
      if Qx.is_rational w1x then begin
        let w1 = Qx.to_q_exn w1x in
        let u = mech w1 in
        (* the certified closed form and the mechanism must agree at any
           rational optimum *)
        assert (Qx.compare_q ux u = 0);
        witness_at w1 u
      end
      else begin
        (* irrational optimum: report the better of its two dyadic
           brackets — the utility is continuous, so the witness sits
           within vanishing distance of the certified supremum *)
        let lo, hi = dyadic_bracket w1x in
        let cands =
          List.sort_uniq Q.compare [ clamp Q.zero w lo; clamp Q.zero w hi ]
        in
        let c0 = List.hd cands in
        let bw, bu = first_best mech (List.tl cands) (c0, mech c0) in
        witness_at bw bu
      end
    in
    if Engine.Ctx.obs_enabled s.ctx then begin
      Obs.Counter.add c_exact_pieces (List.length pieces);
      Obs.Counter.add c_exact_events events;
      Obs.Counter.add c_exact_criticals !criticals;
      Obs.Counter.add c_exact_evals !evals
    end;
    {
      witness;
      w1_exact = w1x;
      utility_exact = ux;
      ratio_exact = ratio ~utility:ux ~honest;
      pieces = List.length pieces;
      events;
    }
  end

(* ------------------------------------------------------------------ *)
(* k ≥ 3 identities, exact slice-wise coordinate descent               *)
(* ------------------------------------------------------------------ *)

let kway_max_rounds = 64

(* Each inner step pairs one free coordinate with the last identity
   (their sum [total] fixed, every other coordinate frozen), enumerates
   that slice's structure-constant pieces exactly
   ([Breakpoints.exact_slice_pieces] on the materialised split path) and
   collects rational candidates: piece samples, rational boundaries,
   critical points of each piece's closed-form utility (exact quadratic
   roots when the derivative numerator has degree ≤ 2, Sturm-isolated
   bracket midpoints above that, irrational points replaced by their
   dyadic brackets).  Every candidate is judged by an actual mechanism
   evaluation through the shared memo, the current point is always
   among the candidates, and only strict improvements move — so the
   descent terminates at a point no walked slice can improve: a
   certified local optimum of the simplex along coordinate lines (every
   reported value is an exactly-evaluated mechanism value, never a
   closed-form extrapolation). *)
let splitk_exact ?ctx ?budget ?honest g ~v =
  let k = (Engine.Ctx.get ctx).Engine.Ctx.identities in
  with_search ~span:"best_splitk_exact" ~local_cache:true ?ctx ?budget
    ?honest g ~v
  @@ fun s ->
  let w = s.w in
  let memo = Memo.create s g ~v in
  let get = Memo.get memo in
  let finish ws u = attack_of ~v ~weights:ws ~utility:u ~honest:s.honest in
  if Q.is_zero w then begin
    let ws = Array.make k Q.zero in
    memo.batch [ ws ];
    finish ws (get ws)
  end
  else begin
    (* Deterministic global seeding: a coarse simplex lattice pre-pass
       through the shared memo picks the descent's starting corner, so
       the local search does not hinge on the uniform point's basin.
       The uniform vector goes first — on a lattice tie it wins. *)
    let seeds =
      Array.make k (Q.div_int w k)
      :: Sybil.lattice ~w ~grid:4 (Array.make (k - 1) (Q.zero, w))
    in
    let deduped = List.sort_uniq vec_compare seeds in
    count_points s seeds deduped;
    memo.batch deduped;
    let x0, u0 =
      first_best get (List.tl seeds) (List.hd seeds, get (List.hd seeds))
    in
    let x = ref x0 and best_u = ref u0 in
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < kway_max_rounds do
      improved := false;
      incr rounds;
      if Engine.Ctx.obs_enabled s.ctx then Obs.Counter.incr c_kway_rounds;
      for i = 0 to k - 2 do
        let total = Q.add (!x).(i) (!x).(k - 1) in
        if Q.sign total > 0 then begin
          let ks = Sybil.split g { Sybil.v; weights = !x } in
          let v1 = ks.Sybil.ids.(i) and v2 = ks.Sybil.ids.(k - 1) in
          let pieces =
            Breakpoints.exact_slice_pieces ~ctx:s.ctx ks.Sybil.graph ~v1 ~v2
              ~total
          in
          if Engine.Ctx.obs_enabled s.ctx then
            Obs.Counter.add c_kway_exact_events (structure_changes pieces);
          let cands = ref [ (!x).(i) ] in
          let addc c =
            if Q.sign c >= 0 && Q.compare c total <= 0 then
              cands := c :: !cands
          in
          let add_qx r =
            if Qx.is_rational r then addc (Qx.to_q_exn r)
            else begin
              let lo, hi = dyadic_bracket r in
              addc lo;
              addc hi
            end
          in
          List.iter
            (fun (p : Breakpoints.exact_piece) ->
              addc p.Breakpoints.sample;
              add_qx p.Breakpoints.xlo;
              add_qx p.Breakpoints.xhi;
              if not (Qx.equal p.Breakpoints.xlo p.Breakpoints.xhi) then begin
                let e =
                  Symbolic.derivative_numerator
                    (Symbolic.slice_utility_function ks.Sybil.graph ~v1 ~v2
                       ~total ~structure:p.Breakpoints.structure
                       ~ids:ks.Sybil.ids)
                in
                if not (Poly.is_zero e) then
                  if Poly.degree e <= 2 then
                    List.iter
                      (fun r ->
                        if
                          Qx.compare p.Breakpoints.xlo r < 0
                          && Qx.compare r p.Breakpoints.xhi < 0
                        then add_qx r)
                      (Qx.roots2 ~a:(Poly.coeff e 2) ~b:(Poly.coeff e 1)
                         ~c:(Poly.coeff e 0))
                  else begin
                    (* with ≥ 3 identities several distinct pairs can
                       involve an identity, so the derivative numerator
                       may exceed degree 2; isolate its roots over a
                       rational sub-bracket of the piece (Sturm) and
                       take bracket midpoints as candidates *)
                    let lo_q =
                      if Qx.is_rational p.Breakpoints.xlo then
                        Qx.to_q_exn p.Breakpoints.xlo
                      else
                        Qx.rational_between p.Breakpoints.xlo
                          (Qx.of_q p.Breakpoints.sample)
                    and hi_q =
                      if Qx.is_rational p.Breakpoints.xhi then
                        Qx.to_q_exn p.Breakpoints.xhi
                      else
                        Qx.rational_between (Qx.of_q p.Breakpoints.sample)
                          p.Breakpoints.xhi
                    in
                    if Q.compare lo_q hi_q < 0 then
                      List.iter
                        (fun (l, h) -> addc (Q.div_int (Q.add l h) 2))
                        (Poly.isolate_roots
                           ~tolerance:(Q.div_int (Q.sub hi_q lo_q) 4096)
                           e ~lo:lo_q ~hi:hi_q)
                  end
              end)
            pieces;
          let vecs =
            List.rev_map
              (fun c ->
                let ws = Array.copy !x in
                ws.(i) <- c;
                ws.(k - 1) <- Q.sub total c;
                ws)
              !cands
          in
          memo.batch (List.sort_uniq vec_compare vecs);
          (* first of a utility tie — in candidate discovery order —
             wins; the current point is candidate zero, so a plateau
             never moves *)
          let bw, bu = first_best get vecs (!x, !best_u) in
          if Q.compare bu !best_u > 0 then begin
            x := bw;
            best_u := bu;
            improved := true
          end
        end
      done
    done;
    finish !x !best_u
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The one per-vertex dispatch on (identities, sweep).  The exact
   2-split also returns its certificate, which ranks vertices. *)
let search_vertex ?ctx ?budget ?honest g ~v =
  let c = Engine.Ctx.get ctx in
  match (c.Engine.Ctx.identities, c.Engine.Ctx.sweep) with
  | _, Engine.Grid -> (grid_sweep ?ctx ?budget ?honest g ~v, None)
  | 2, Engine.Exact ->
      let e = best_split_exact ?ctx ?budget ?honest g ~v in
      (e.witness, Some e)
  | _, Engine.Exact -> (splitk_exact ?ctx ?budget ?honest g ~v, None)

let best_split ?ctx ?budget ?honest g ~v =
  fst (search_vertex ?ctx ?budget ?honest g ~v)

(* The earlier vertex wins ties.  Certified results rank by the exact
   ratio: two vertices whose witnesses tie can differ once resolved. *)
let better ((a, ea) as earlier) ((b, eb) as later) =
  let later_wins =
    match (ea, eb) with
    | Some ea, Some eb -> Qx.compare eb.ratio_exact ea.ratio_exact > 0
    | _ -> Q.compare b.ratio a.ratio > 0
  in
  if later_wins then later else earlier

(* The one vertex fan-out: the honest utilities of all vertices come
   from one decomposition of the unmodified ring (n−1 decompositions
   saved), and parallelism lives at the vertex level — each search runs
   sequentially on its worker domain, sharing the context's cache.  The
   budget's step counter is atomic, so one budget meters all domains;
   Parwork re-raises the first Exhausted after every domain has
   joined. *)
let attack_all ?ctx ?budget g =
  if Graph.n g = 0 then invalid_arg "Incentive.best_attack: empty graph";
  let ctx = Engine.Ctx.arm (with_budget_arg budget (Engine.Ctx.get ctx)) in
  let { Engine.Ctx.identities; sweep; grid; refine; domains; _ } = ctx in
  let span, fanout =
    match (identities, sweep) with
    | 2, Engine.Grid ->
        ( "best_attack",
          if (grid + 1) * (refine + 1) < parallel_evals_min then 1
          else domains )
    | 2, Engine.Exact -> ("best_attack_exact", domains)
    | _ -> ("best_attack_k", domains)
  in
  Obs.Span.with_ span @@ fun () ->
  Obs.Counter.incr c_attack_calls;
  let d = Decompose.compute ~ctx:(Engine.Ctx.without_budget ctx) g in
  Obs.Counter.add c_honest_shared (Graph.n g);
  let split_ctx = Engine.Ctx.with_domains 1 ctx in
  Parwork.map ~domains:fanout
    (fun v ->
      search_vertex ~ctx:split_ctx ~honest:(Utility.of_vertex g d v) g ~v)
    (Array.init (Graph.n g) Fun.id)
  |> Array.fold_left
       (fun best a ->
         match best with None -> Some a | Some b -> Some (better b a))
       None
  |> Option.get

let best_attack ?ctx ?budget g = fst (attack_all ?ctx ?budget g)

let best_attack_exact ?ctx ?budget g =
  let ctx =
    Engine.Ctx.get ctx |> Engine.Ctx.with_identities 2
    |> Engine.Ctx.with_sweep Engine.Exact
  in
  match attack_all ~ctx ?budget g with
  | _, Some e -> e
  | _, None -> assert false

(* ------------------------------------------------------------------ *)
(* Fault-tolerant scan with checkpoints                                *)
(* ------------------------------------------------------------------ *)

type progress = {
  best : attack option;
  best_exact : exact_attack option;
  completed : int;
  total : int;
  status : (unit, Ringshare_error.t) result;
}

(* The best-so-far rides under [best_*] fields at two identities (the
   split as [best_w1]; the exact sweep's certificate as [exact_*] Qx
   strings next to it) and under [kbest_*] fields above (the weight
   vector ";"-joined), so every layout written so far still loads. *)
let prefix identities = if identities >= 3 then "kbest" else "best"

let best_fields ~identities = function
  | None -> [ (prefix identities, "none") ]
  | Some ((a : attack), e) ->
      let p = prefix identities in
      [
        (p, "some");
        (p ^ "_v", string_of_int a.v);
        (if identities >= 3 then
           ("kbest_weights", Checkpoint.rationals_to_string a.weights)
         else ("best_w1", Q.to_string a.w1));
        (p ^ "_utility", Q.to_string a.utility);
        (p ^ "_honest", Q.to_string a.honest);
        (p ^ "_ratio", Q.to_string a.ratio);
      ]
      @
      match e with
      | None -> []
      | Some e ->
          [
            ("exact_w1", Qx.to_string e.w1_exact);
            ("exact_utility", Qx.to_string e.utility_exact);
            ("exact_ratio", Qx.to_string e.ratio_exact);
            ("exact_pieces", string_of_int e.pieces);
            ("exact_events", string_of_int e.events);
          ]

let qx_field =
  Checkpoint.typed_field
    (fun s ->
      match Qx.of_string s with
      | x -> Some x
      | exception (Invalid_argument _ | Failure _ | Division_by_zero) -> None)
    "surd"

(* Loading re-checks what the scan would have guaranteed: the vertex
   exists, its weight vector splits [w_v] over [identities] non-negative
   entries, and each ratio is its utility over the honest one. *)
let best_of_fields ~ctx g fields =
  let { Engine.Ctx.identities = k; sweep; _ } = ctx in
  let p = prefix k in
  match Checkpoint.field fields p with
  | "none" -> None
  | "some" ->
      let v = Checkpoint.int_field fields (p ^ "_v") in
      if v < 0 || v >= Graph.n g then
        Checkpoint.invalid "%s_v %d is not a vertex of the %d-vertex graph"
          p v (Graph.n g);
      let w = Graph.weight g v in
      let weights =
        if k >= 3 then Checkpoint.rationals_field fields "kbest_weights"
        else pair w (Checkpoint.rational_field fields "best_w1")
      in
      if
        Array.length weights <> k
        || Array.exists (fun x -> Q.sign x < 0) weights
        || not (Q.equal (Array.fold_left Q.add Q.zero weights) w)
      then
        Checkpoint.invalid
          "%s weights are not %d non-negative parts of w_%d = %s" p k v
          (Q.to_string w);
      let utility = Checkpoint.rational_field fields (p ^ "_utility") in
      let honest = Checkpoint.rational_field fields (p ^ "_honest") in
      let a = attack_of ~v ~weights ~utility ~honest in
      if not (Q.equal (Checkpoint.rational_field fields (p ^ "_ratio")) a.ratio)
      then Checkpoint.invalid "%s_ratio is not %s_utility / %s_honest" p p p;
      let e =
        match sweep with
        | Engine.Exact when k = 2 ->
            let utility_exact = qx_field fields "exact_utility" in
            let ratio_exact = qx_field fields "exact_ratio" in
            if
              not
                (Qx.equal ratio_exact
                   (ratio ~utility:utility_exact ~honest))
            then
              Checkpoint.invalid
                "exact_ratio is not exact_utility / best_honest";
            Some
              {
                witness = a;
                w1_exact = qx_field fields "exact_w1";
                utility_exact;
                ratio_exact;
                pieces = Checkpoint.int_field fields "exact_pieces";
                events = Checkpoint.int_field fields "exact_events";
              }
        | _ -> None
      in
      Some (a, e)
  | s -> Checkpoint.invalid "bad %s marker %S" p s

let ckpt_kind = "best-attack"

let best_attack_within ?ctx ?budget ?checkpoint ?(resume = false) g =
  if Graph.n g = 0 then invalid_arg "Incentive.best_attack: empty graph";
  let ctx = Engine.Ctx.arm (with_budget_arg budget (Engine.Ctx.get ctx)) in
  let budget = Engine.Ctx.budget_or_unlimited ctx in
  let total = Graph.n g in
  let { Engine.Ctx.sweep; identities; _ } = ctx in
  let digest = Digest.to_hex (Digest.string (Serial.to_string g)) in
  let start, best0 =
    Checkpoint.resume ~who:"Incentive.best_attack_within" ~kind:ckpt_kind
      ?path:checkpoint ~resume
      ~fresh:(fun () -> (0, None))
      (fun fields ->
        if not (String.equal (Checkpoint.field fields "graph") digest) then
          Ringshare_error.(
            error
              (Invalid_input "checkpoint was written for a different graph"));
        (* snapshots predating the exact sweep were written by the grid
           search, those predating k-identity splits by the 2-split one *)
        Checkpoint.check_setting fields "sweep" ~default:"grid"
          ~expected:(Engine.sweep_name sweep);
        Checkpoint.check_setting fields "identities" ~default:"2"
          ~expected:(string_of_int identities);
        let next = Checkpoint.int_field fields "next" in
        if next < 0 || next > total then
          Checkpoint.invalid "next %d is outside 0..%d" next total;
        (next, best_of_fields ~ctx g fields))
  in
  let save_ckpt next best =
    match checkpoint with
    | None -> ()
    | Some path ->
        Checkpoint.save ~path ~kind:ckpt_kind
          (("graph", digest)
          :: ("total", string_of_int total)
          :: ("next", string_of_int next)
          :: ("sweep", Engine.sweep_name sweep)
          :: ("identities", string_of_int identities)
          :: best_fields ~identities best)
  in
  let best = ref best0 in
  let completed = ref start in
  let status = ref (Ok ()) in
  (* snapshot up front so an interruption before the first vertex completes
     still leaves a resumable (graph-bound) checkpoint on disk *)
  save_ckpt start best0;
  (* honest utilities shared across vertices, as in best_attack; lazy so
     a fully-completed resume does no work and solver errors are still
     captured by the loop below *)
  let d =
    lazy
      (Obs.Counter.add c_honest_shared total;
       Decompose.compute ~ctx:(Engine.Ctx.without_budget ctx) g)
  in
  (* unlike best_attack, vertices stay sequential (the checkpoint is
     rewritten after each one); ctx.domains instead parallelises each
     vertex's sweep inside its memo, which is bit-identical to the
     sequential search — so kill/resume determinism is preserved *)
  (try
     for v = start to total - 1 do
       Budget.check budget;
       let honest = Utility.of_vertex g (Lazy.force d) v in
       let a = search_vertex ~ctx ~honest g ~v in
       best := Some (match !best with None -> a | Some b -> better b a);
       incr completed;
       save_ckpt !completed !best
     done
   with
  | Budget.Exhausted { steps; elapsed } ->
      status := Error (Ringshare_error.Budget_exhausted { steps; elapsed })
  | Ringshare_error.Error e -> status := Error e);
  {
    best = Option.map fst !best;
    best_exact = Option.bind !best snd;
    completed = !completed;
    total;
    status = !status;
  }

let ratio_of_attack (a : attack) = Q.to_float a.ratio
