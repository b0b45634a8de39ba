(** The complete subinterval structure of Section III.B.

    As agent [v]'s reported weight [x] sweeps [[0, w_v]], the decomposition
    is piecewise constant: the paper partitions the range into subintervals
    [⟨a_i, b_i⟩] with a fixed decomposition [𝔅^i] inside each, adjacent
    decompositions related by the merge/split rules of Proposition 12.
    This module materialises that object: the interval list, each
    interval's pair structure, [v]'s class and pair index inside it, and
    the classified transition at every boundary. *)

type interval = {
  lo : Rational.t;
  hi : Rational.t;  (** open/closed endpoints are not distinguished: the
                        decomposition at the sampled interior point is
                        reported *)
  sample : Rational.t;  (** the interior point the structure was read at *)
  structure : Decompose.t;  (** decomposition at [sample] *)
  v_class : Classes.cls;
  v_pair : int;  (** index of the pair containing [v] *)
}

type transition = {
  at : Rational.t * Rational.t;  (** bracket around the boundary *)
  kind : [ `Merge | `Split | `Other ];
}

type t = { v : int; intervals : interval list; transitions : transition list }

val compute :
  ?ctx:Engine.Ctx.t -> Graph.t -> v:int -> t
(** Breakpoint scan + interior sampling; solver choice and grid width
    come from [ctx] ({!Engine.Ctx.default} when absent). *)

val check_prop12 : t -> (unit, string) result
(** Proposition 11/12 on the trace: [v]'s class sides form a C-phase then
    a B-phase, and the number of pairs changes by at most one across each
    merge/split transition. *)

val pp : Format.formatter -> t -> unit

val to_csv : t -> string
(** One line per interval: [lo,hi,pairs,v_class,v_alpha]. *)
