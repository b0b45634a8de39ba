module Q = Rational

type interval = {
  lo : Qx.t;
  hi : Qx.t;
  num : Poly.t;
  den : Poly.t;
  bound_holds : bool;
  best_here : Qx.t;
}

type report = {
  v : int;
  honest : Q.t;
  intervals : interval list;
  certified : bool;
  best_found : Qx.t;
}

(* One identity's utility as a rational function (numerator, denominator)
   of x, inside a fixed decomposition structure.  [v1] carries x, [v2]
   carries total − x; any other id keeps its fixed graph weight. *)
let identity_utility g ~v1 ~v2 ~total structure id =
  let p = Decompose.pair_of structure id in
  let own =
    if id = v1 then Poly.x
    else if id = v2 then Poly.linear total (Q.of_int (-1))
    else Poly.constant (Graph.weight g id)
  in
  if Vset.equal p.Decompose.b p.Decompose.c then
    (* self pair (alpha = 1): the identity receives its own weight *)
    (own, Poly.one)
  else begin
    let weight set =
      let c, s = Breakpoints.affine_of_set g ~v1 ~v2 ~total set in
      Poly.linear c (Q.of_int s)
    in
    let wb = weight p.Decompose.b and wc = weight p.Decompose.c in
    if Vset.mem id p.Decompose.b then
      (* U = w_id * w(C)/w(B) *)
      if Poly.is_zero wb then (Poly.zero, Poly.one)
      else (Poly.mul own wc, wb)
    else if Poly.is_zero wc then (Poly.zero, Poly.one)
    else (Poly.mul own wb, wc)
  end

(* Σ_j U_{ids.(j)} over a common denominator, on a slice where only the
   weights of [v1] (= x) and [v2] (= total − x) vary and every other
   vertex — including the remaining identities — keeps the weight it
   has in [g]. *)
let slice_utility_function g ~v1 ~v2 ~total ~structure ~ids =
  Array.fold_left
    (fun (n_acc, d_acc) id ->
      let n, d = identity_utility g ~v1 ~v2 ~total structure id in
      (Poly.add (Poly.mul n_acc d) (Poly.mul n d_acc), Poly.mul d_acc d))
    (Poly.zero, Poly.one) ids

let derivative_numerator (num, den) =
  Poly.sub (Poly.mul (Poly.derive num) den) (Poly.mul num (Poly.derive den))

(* Horner evaluation in the quadratic-surd field; [Poly.coeffs] is
   ascending. *)
let eval_qx p x =
  List.fold_right
    (fun c acc -> Qx.add_q (Qx.mul acc x) c)
    (Poly.coeffs p) (Qx.of_q Q.zero)

type piece_max = { arg : Qx.t; value : Qx.t; evals : int; criticals : int }

let maximise_piece (num, den) (p : Breakpoints.exact_piece) =
  let best = ref None and evals = ref 0 and criticals = ref 0 in
  (* strict improvement only: the first candidate of a tie wins *)
  let consider x u =
    incr evals;
    match !best with
    | Some (_, bu) when Qx.compare u bu <= 0 -> ()
    | _ -> best := Some (x, u)
  in
  let consider_form x =
    let de = eval_qx den x in
    if Qx.sign de <> 0 then consider x (Qx.div (eval_qx num x) de)
  in
  (* the closed form extends continuously to the piece boundary
     (Theorem 10), so closed-endpoint evaluation is sound even where the
     at-point structure differs *)
  consider_form p.xlo;
  (* interior critical points, which the degree-≤2 derivative theorem
     (DESIGN §16) trims to the roots of a quadratic *)
  let e = derivative_numerator (num, den) in
  if Poly.degree e > 2 then
    invalid_arg
      "Symbolic.maximise_piece: derivative numerator exceeds degree 2";
  if not (Poly.is_zero e) then
    List.iter
      (fun r ->
        if Qx.compare p.xlo r < 0 && Qx.compare r p.xhi < 0 then begin
          incr criticals;
          consider_form r
        end)
      (Qx.roots2 ~a:(Poly.coeff e 2) ~b:(Poly.coeff e 1) ~c:(Poly.coeff e 0));
  consider_form p.xhi;
  (* anchor: the sampled interior point, by rational evaluation *)
  consider (Qx.of_q p.sample)
    (Qx.of_q (Q.div (Poly.eval num p.sample) (Poly.eval den p.sample)));
  match !best with
  | Some (arg, value) -> { arg; value; evals = !evals; criticals = !criticals }
  | None -> assert false

let verify_theorem8 ?ctx g ~v =
  let ctx = Engine.Ctx.get ctx in
  let n = Graph.n g and total = Graph.weight g v in
  let honest = Sybil.honest_utility ~ctx g ~v in
  let two_h = Q.mul_int honest 2 in
  let mech w1 = Sybil.split_utility ~ctx g ~v ~w1 in
  let error = ref None in
  let interval (p : Breakpoints.exact_piece) =
    if Qx.equal p.xlo p.xhi then begin
      (* point piece: its structure lives at one rational point *)
      let u = mech p.sample in
      { lo = p.xlo; hi = p.xhi; num = Poly.constant u; den = Poly.one;
        bound_holds = Q.compare u two_h <= 0; best_here = Qx.of_q u }
    end
    else begin
      let num, den =
        slice_utility_function g ~v1:v ~v2:n ~total ~structure:p.structure
          ~ids:[| v; n |]
      in
      (* consistency: the closed form must agree exactly with the
         mechanism at the piece's sample *)
      if
        not
          (Q.equal
             (Q.div (Poly.eval num p.sample) (Poly.eval den p.sample))
             (mech p.sample))
      then
        error :=
          Some
            (Format.asprintf "symbolic utility mismatch at w1 = %a" Q.pp
               p.sample);
      let m = maximise_piece (num, den) p in
      { lo = p.xlo; hi = p.xhi; num; den;
        bound_holds = Qx.compare_q m.value two_h <= 0; best_here = m.value }
    end
  in
  let intervals =
    List.map interval (Breakpoints.exact_split_pieces ~ctx g ~v)
  in
  match !error with
  | Some m -> Error m
  | None ->
      Ok
        {
          v;
          honest;
          intervals;
          certified = List.for_all (fun iv -> iv.bound_holds) intervals;
          best_found =
            (match intervals with
            | [] -> Qx.of_q honest
            | iv :: rest ->
                List.fold_left
                  (fun acc iv -> Qx.max acc iv.best_here)
                  iv.best_here rest);
        }
