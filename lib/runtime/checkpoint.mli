(** Atomic snapshot files for the long-running searches.

    A checkpoint is a small line-based key/value file:
    {v
    ringshare-checkpoint v1
    kind hunt
    seed 5
    rng 4242
    ...
    end 7
    v}
    [end <count>] closes the file with the number of field lines, so a
    torn or truncated snapshot is always rejected on load.  {!save}
    writes to a temporary file in the same directory, fsyncs, then
    renames over the target — a crash at any instant leaves either the
    old snapshot or the new one, never a mix.

    Keys are single tokens; values run to the end of the line.  Field
    order is preserved. *)

val save : path:string -> kind:string -> (string * string) list -> unit
(** Atomically replace [path] with a snapshot of [kind] and the fields.
    @raise Ringshare_error.Error ([Io_error]) if writing fails. *)

val load :
  path:string -> kind:string -> ((string * string) list, Ringshare_error.t) result
(** Read a snapshot back, validating header, kind, and the [end] count.
    [Error (Parse_error _)] names the offending line on any mismatch. *)

val resume :
  who:string -> kind:string -> ?path:string -> resume:bool ->
  fresh:(unit -> 'a) -> ((string * string) list -> 'a) -> 'a
(** The start state of a resumable search: [fresh ()] unless [resume],
    or when the snapshot at [path] does not exist yet; otherwise the
    loaded snapshot's fields handed to the reader.
    @raise Ringshare_error.Error ([Invalid_input]) naming [who] when
    resuming without a [path]; the {!load} error when the snapshot is
    unreadable. *)

val invalid : ('a, unit, string, 'b) format4 -> 'a
(** [invalid fmt ...] rejects a snapshot whose fields do not hold
    together.
    @raise Ringshare_error.Error ([Invalid_input "checkpoint: ..."]). *)

val field : (string * string) list -> string -> string
(** First value bound to the key.
    @raise Ringshare_error.Error ([Invalid_input]) if absent. *)

val typed_field :
  (string -> 'a option) -> string -> (string * string) list -> string -> 'a
(** [typed_field of_string what fields k] parses the trimmed value of
    [k]; [what] names the expected type in the error.
    @raise Ringshare_error.Error ([Invalid_input]) if the key is absent
    or [of_string] returns [None]. *)

val int_field : (string * string) list -> string -> int
val int64_field : (string * string) list -> string -> int64
val bool_field : (string * string) list -> string -> bool
val rational_field : (string * string) list -> string -> Rational.t

val rationals_to_string : Rational.t array -> string
(** A rational vector as one field value: the entries [";"]-joined,
    ["-"] for the empty vector. *)

val rationals_field : (string * string) list -> string -> Rational.t array
(** Reads back what {!rationals_to_string} wrote. *)

val check_setting :
  (string * string) list -> string -> default:string -> expected:string ->
  unit
(** [check_setting fields key ~default ~expected] rejects a snapshot
    written under another setting of [key] (e.g. the sweep policy or the
    Sybil identity count); snapshots older than the field count as
    [default].
    @raise Ringshare_error.Error ([Invalid_input]) naming both values. *)
