let header = "ringshare-checkpoint v1"

let fp_write = Failpoint.register "checkpoint.write"
let fp_rename = Failpoint.register "checkpoint.rename"

let save ~path ~kind fields =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf ("kind " ^ kind ^ "\n");
  List.iter
    (fun (k, v) ->
      if String.contains k ' ' || k = "" then
        invalid_arg "Checkpoint.save: key must be a single non-empty token";
      if String.contains v '\n' then
        invalid_arg "Checkpoint.save: value must be a single line";
      Buffer.add_string buf (k ^ " " ^ v ^ "\n"))
    fields;
  Buffer.add_string buf (Printf.sprintf "end %d\n" (List.length fields));
  Atomic_file.write ~write_fp:fp_write ~rename_fp:fp_rename ~path
    (Buffer.contents buf)

let parse ~path ~kind text =
  let err line msg =
    Error (Ringshare_error.Parse_error { file = Some path; line; msg })
  in
  let lines = String.split_on_char '\n' text in
  let fields = ref [] and count = ref 0 in
  let state = ref `Header in
  let result = ref None in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      match !result with
      | Some _ -> ()
      | None -> (
          let text = String.trim raw in
          match (!state, text) with
          | _, "" -> ()
          | `Header, t ->
              if t = header then state := `Kind
              else result := Some (err line (Printf.sprintf "expected header %S" header))
          | `Kind, t -> (
              match String.index_opt t ' ' with
              | Some j when String.sub t 0 j = "kind" ->
                  let k = String.trim (String.sub t (j + 1) (String.length t - j - 1)) in
                  if k = kind then state := `Fields
                  else
                    result :=
                      Some (err line (Printf.sprintf "checkpoint kind %S, expected %S" k kind))
              | _ -> result := Some (err line "expected a kind directive"))
          | `Fields, t -> (
              match String.index_opt t ' ' with
              | Some j ->
                  let k = String.sub t 0 j in
                  let v = String.sub t (j + 1) (String.length t - j - 1) in
                  if k = "end" then
                    if int_of_string_opt (String.trim v) = Some !count then
                      state := `Done
                    else
                      result :=
                        Some
                          (err line
                             (Printf.sprintf "end count %S does not match %d fields (truncated?)"
                                (String.trim v) !count))
                  else begin
                    incr count;
                    fields := (k, v) :: !fields
                  end
              | None -> result := Some (err line (Printf.sprintf "malformed field %S" t)))
          | `Done, t ->
              result := Some (err line (Printf.sprintf "content after end marker: %S" t))))
    lines;
  match !result with
  | Some e -> e
  | None ->
      if !state <> `Done then
        err (List.length lines) "missing end marker (file truncated?)"
      else Ok (List.rev !fields)

let load ~path ~kind =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse ~path ~kind text
  | exception Sys_error m ->
      Error (Ringshare_error.Io_error { file = path; msg = m })

let resume ~who ~kind ?path ~resume ~fresh read =
  if not resume then fresh ()
  else
    match path with
    | None ->
        Ringshare_error.(
          error
            (Invalid_input (who ^ ": resume requires a checkpoint path")))
    | Some path when not (Sys.file_exists path) -> fresh ()
    | Some path -> (
        match load ~path ~kind with
        | Error e -> Ringshare_error.error e
        | Ok fields -> read fields)

let invalid fmt =
  Printf.ksprintf
    (fun m -> Ringshare_error.(error (Invalid_input ("checkpoint: " ^ m))))
    fmt

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None ->
      Ringshare_error.(error (Invalid_input ("checkpoint is missing field " ^ k)))

let typed_field of_string what fields k =
  let v = field fields k in
  match of_string (String.trim v) with
  | Some x -> x
  | None ->
      Ringshare_error.(
        error (Invalid_input (Printf.sprintf "checkpoint field %s: bad %s %S" k what v)))

let int_field fields = typed_field int_of_string_opt "int" fields
let int64_field fields = typed_field Int64.of_string_opt "int64" fields
let bool_field fields = typed_field bool_of_string_opt "bool" fields

let rational_of_string_opt s =
  match Rational.of_string s with
  | q -> Some q
  | exception (Invalid_argument _ | Failure _ | Division_by_zero) -> None

let rational_field fields = typed_field rational_of_string_opt "rational" fields

(* "-" stands for the empty vector: a field value cannot be empty. *)
let rationals_to_string = function
  | [||] -> "-"
  | qs -> String.concat ";" (Array.to_list (Array.map Rational.to_string qs))

let rationals_of_string_opt = function
  | "-" -> Some [||]
  | s ->
      let qs = List.map rational_of_string_opt (String.split_on_char ';' s) in
      if List.exists Option.is_none qs then None
      else Some (Array.of_list (List.filter_map Fun.id qs))

let rationals_field fields =
  typed_field rationals_of_string_opt "rational vector" fields

let check_setting fields key ~default ~expected =
  let found = Option.value ~default (List.assoc_opt key fields) in
  if not (String.equal found expected) then
    Ringshare_error.(
      error
        (Invalid_input
           (Printf.sprintf "checkpoint was written with %s %s, resumed with %s"
              key found expected)))
