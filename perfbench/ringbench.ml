(* Seeded benchmark of the Sybil split search.

   Three workloads drive the entry points the CLI subcommands call:
     exact-certify  Incentive.best_split_exact   (ringshare sybil --agent V --sweep exact)
     grid-screen    Incentive.best_split         (ringshare sybil --agent V)
     batch-cached   Serial.load_r + Incentive.best_attack under
                    Engine.run_batch_r, 2 domains, fresh 4096-entry cache
                    per batch                    (ringshare batch --domains 2)

   Modes:
     --mode measure   untraced; part K of P of a measured run: runs chunks
                      K * pool / P up to (K + 1) * pool / P (stopping early
                      only once --seconds of timed op time have passed),
                      then its share of the fixed reference set, and prints
                      the raw per-op data that run.py merges into the
                      end-to-end metrics
     --mode pass      exactly one pass over the workload; with --traced the
                      Obs counters and spans are on, the per-layer metrics
                      are printed and the pass's exact counter values are
                      written to .bench_out/

   Every op's output is checked outside the timed region; the last line of
   standard output is one JSON object (see README.md). *)

module Q = Rational

let now = Unix.gettimeofday

(* Process CPU time.  The ring workloads run on one domain and are timed
   with it, so time the host gives to other processes is not counted;
   batch-cached runs on two domains and is timed by the wall clock. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let clock_of = function "batch-cached" -> now | _ -> cpu

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)
(* ------------------------------------------------------------------ *)

(* The host is shared, and its speed changes by up to 40% over seconds,
   in process CPU time too.  So every timed op, batch and set-up is
   paired with a fixed host probe that uses only the standard library
   (no change to the program under test moves it), and its times are
   scaled by [probe_ref_s] / (probe time around it).  Reported times are
   thus reference-host times: times on a host where one probe takes
   [probe_ref_s], a fixed constant.  The probe allocates short-lived
   lists and arrays and updates a hash table of its own domain, as the
   program does; the table is made before the probe is timed and is
   small, so it adds little to the heap the program's collections
   traverse. *)
let probe_ref_s = 5e-4
let probe_rounds = 750

let probe_table =
  Domain.DLS.new_key (fun () ->
      let h = Hashtbl.create 1024 in
      for k = 0 to 1023 do Hashtbl.replace h k k done;
      h)

(* one probe, in seconds of [clock] *)
let host_probe clock =
  let h = Domain.DLS.get probe_table in
  let t0 = clock () in
  let acc = ref 0 in
  for i = 0 to probe_rounds - 1 do
    let l = List.init 6 (fun j -> ((i * 7919) + (j * 104729)) land 1023) in
    List.iter (fun k -> Hashtbl.replace h k (k lxor !acc)) l;
    let a = Array.of_list l in
    Array.sort compare a;
    acc := !acc + (Hashtbl.find h (i land 1023) land 15) + (a.(0) land 3)
  done;
  ignore (Sys.opaque_identity !acc);
  clock () -. t0

let median xs =
  let s = List.sort compare xs and n = List.length xs in
  if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* median of [k] probes *)
let host_probes clock k = median (List.init k (fun _ -> host_probe clock))
let () = ignore (host_probes cpu 5) (* warm the probe's code *)

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                       *)
(* ------------------------------------------------------------------ *)

(* Ring workloads: op [i] is the (ring, agent) pair [i] of a seeded
   stream of uniform[1,100] rings of [ring_n] agents.  A measured run
   makes the first [exact_ops] (or [grid_ops]) ops of the stream, so two
   runs of one seed time the same inputs.  The grid search's op time is
   bimodal (about one op in six is 10-30x slower than the median), so it
   needs more ops than the exact search for a steady mean.  The first
   [ring_pass] ops form the pass, the unit of the traced run, shared by
   both ring workloads so their times compare op for op.  Rings are
   generated outside the timed region, one at a time, so the stream adds
   nothing to the live heap the program under test sees. *)
let ring_n = 32
let exact_ops = 320
let grid_ops = 1536
let ring_pass = 128

(* Batch workload: [corpora] corpora of [corpus_size] files; one op is
   one file and one chunk is one [run_batch_r] over one corpus.  A
   measured run makes every corpus once.  Ring sizes and weight families
   are stratified (round-robin) so seeds vary only the weights and the
   repeat pattern.  The first [batch_pass] corpora form the pass. *)
let corpora = 12
let corpus_size = 32
let batch_pass = 8
let batch_domains = 2
let batch_cache = 4096
let repeat_window = 4

(* Warm-up runs [warmup_ops] ops (a [warmup_ops]-file batch for
   batch-cached) on instances drawn from [warmup_seed], so set-up time
   does not depend on --seed. *)
let warmup_ops = 4
let warmup_seed = 0

(* ratio_mean is measured on a fixed reference set drawn from
   [reference_seed]: [reference_ops] ring ops, or [reference_corpora]
   corpora of [reference_corpus_size] files.  Its value is then the same
   on every run, so any change in what a search finds moves it, while
   the timed inputs still come from --seed. *)
let reference_seed = 0x5eed
let reference_ops = 32
let reference_corpora = 4
let reference_corpus_size = 8

(* set-up is repeated this many times per run; its median is setup_s *)
let setups = 3

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

type mode = Measure | Pass

type args = {
  workload : string;
  seed : int;
  seconds : float;
  mode : mode;
  traced : bool;
  part : int;
  parts : int;
}

let usage () =
  prerr_endline
    "usage: ringbench --workload exact-certify|grid-screen|batch-cached \
     --seed N --seconds S [--mode measure|pass] [--traced] [--part K \
     --parts P]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let mode = ref Measure and traced = ref false in
  let part = ref (Some 0) and parts = ref (Some 1) in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--mode" :: "measure" :: rest -> mode := Measure; go rest
    | "--mode" :: "pass" :: rest -> mode := Pass; go rest
    | "--traced" :: rest -> traced := true; go rest
    | "--part" :: k :: rest -> part := int_of_string_opt k; go rest
    | "--parts" :: p :: rest -> parts := int_of_string_opt p; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !part, !parts) with
  | Some workload, Some seed, Some seconds, Some part, Some parts
    when seconds > 0. && parts >= 1 && part >= 0 && part < parts ->
      { workload; seed; seconds; mode = !mode; traced = !traced; part; parts }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* One timed unit of work.  A ring workload's chunk is one op; a batch
   chunk is one [run_batch_r] over one corpus, one op per file. *)
type chunk = {
  wall : float;  (** timed seconds of the chunk *)
  host : float;  (** host probe seconds measured with the chunk *)
  lat : float array;  (** per-op busy seconds *)
  lat_host : float array;
      (** per-op host probe seconds: in a batch, the median probe of the
          domain that ran the op *)
  ok : bool array;  (** per-op output check *)
  ratio : float array;  (** per-op incentive ratio found *)
}

type workload = {
  pool : int;  (** distinct chunks; a measured run makes each once *)
  pass : int;  (** chunks in one pass: the first [pass] of the pool *)
  run : int -> chunk;  (** run (timed) and check (untimed) chunk [i] *)
  domains : int;
  smooth : int;
      (** a chunk's times are scaled by the median host probe time of
          the chunks within [smooth] of it in the same run *)
  probe : unit -> unit;
      (** traced run only: the benchmark's direct calls into single
          layers over the pass's inputs, each call in its own span *)
  cleanup : unit -> unit;
}

type size = Full | Warmup | Reference

let checked f = match f () with b -> b | exception _ -> false
let in_theorem8_range r = Q.compare r Q.one >= 0 && Q.compare r Q.two <= 0

(* The rational witness re-evaluated on the decomposition path, which
   shares no code with Breakpoints. *)
let witness_holds g ~v (a : Incentive.attack) =
  a.v = v
  && Q.equal (Sybil.split_utility g ~v ~w1:a.w1) a.utility
  && Q.equal (Sybil.honest_utility g ~v) a.honest
  && Q.equal a.ratio (Q.div a.utility a.honest)

(* [instance i] builds ring op [i]; only the seeds are kept *)
let ring_instances ~seed ~size =
  let rng = Prng.create seed in
  let seeds =
    Array.init size (fun _ ->
        let s = Prng.int rng 0x3fffffff in
        (s, Prng.int rng ring_n))
  in
  fun i ->
    let s, v = seeds.(i) in
    (Instances.ring ~seed:s ~n:ring_n (Weights.Uniform (1, 100)), v)

let ring_workload ~seed ~size ~ops op check ratio_of ~probe =
  let pool =
    match size with
    | Full -> ops
    | Warmup -> warmup_ops
    | Reference -> reference_ops
  in
  let instance = ring_instances ~seed ~size:pool in
  let run i =
    let g, v = instance i in
    let host = host_probe cpu in
    let t0 = cpu () in
    let r =
      match Obs.Span.with_ "bench.op" (fun () -> op g v) with
      | r -> Some r
      | exception _ -> None
    in
    let wall = cpu () -. t0 in
    let ok, ratio =
      match r with
      | None -> (false, 0.)
      | Some r -> (checked (fun () -> check g v r), ratio_of r)
    in
    {
      wall;
      host;
      lat = [| wall |];
      lat_host = [| host |];
      ok = [| ok |];
      ratio = [| ratio |];
    }
  in
  let pass = min ring_pass pool in
  let probe () =
    for i = 0 to pass - 1 do
      let g, v = instance i in
      probe g v
    done
  in
  { pool; pass; run; domains = 1; smooth = 5; probe; cleanup = ignore }

let exact_ctx = Engine.Ctx.make ~sweep:Engine.Exact ()

let exact_certify ~seed ~size =
  ring_workload ~seed ~size ~ops:exact_ops
    (fun g v -> Incentive.best_split_exact ~ctx:exact_ctx g ~v)
    (fun g v (e : Incentive.exact_attack) ->
      witness_holds g ~v e.witness
      && Qx.compare_q e.ratio_exact Q.one >= 0
      && Qx.compare_q e.ratio_exact Q.two <= 0
      && Qx.compare_q e.ratio_exact e.witness.ratio >= 0)
    (fun e -> Qx.to_float e.ratio_exact)
    ~probe:(fun g v ->
      (* the same fresh request-local cache best_split_exact gives it *)
      let ctx =
        Engine.Ctx.with_cache (Engine.Cache.create ~capacity:128 ()) exact_ctx
      in
      ignore
        (Obs.Span.with_ "bench.breakpoints" (fun () ->
             Breakpoints.exact_split_pieces ~ctx g ~v)))

let grid_screen ~seed ~size =
  ring_workload ~seed ~size ~ops:grid_ops
    (fun g v -> Incentive.best_split ~ctx:Engine.Ctx.default g ~v)
    (fun g v (a : Incentive.attack) ->
      in_theorem8_range a.ratio && witness_holds g ~v a)
    (fun a -> Q.to_float a.ratio)
    ~probe:(fun _ _ -> ())

(* Batch corpus: entry [i] is either a fresh ring or a repeat of one of
   the previous [repeat_window] entries (exactly half are repeats), so a
   cache that saves work shows apart from one that only costs keying. *)
type entry = { src : int; g : Graph.t; file : string }

let dists =
  [| Weights.Uniform (1, 100); Weights.Powerlaw (1000, 2.0);
     Weights.Bimodal (1, 100, 0.3) |]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let corpus_dirs = ref 0

let write_corpora ~seed ~count ~size =
  incr corpus_dirs;
  let dir =
    Printf.sprintf ".bench_out/corpus-%d-%d" (Unix.getpid ()) !corpus_dirs
  in
  mkdir_p dir;
  let rng = Prng.create seed in
  let fresh = ref 0 in
  let corpus c =
    (* exactly [size / 2] repeats, at seeded positions after the first *)
    let repeat = Array.make size false in
    let spots = Array.init (size - 1) (fun k -> k + 1) in
    for k = 0 to (size / 2) - 1 do
      let j = k + Prng.int rng (size - 1 - k) in
      let t = spots.(k) in
      spots.(k) <- spots.(j);
      spots.(j) <- t;
      repeat.(spots.(k)) <- true
    done;
    let entries = Array.make size None in
    for i = 0 to size - 1 do
      let file = Filename.concat dir (Printf.sprintf "c%d-e%03d.graph" c i) in
      let src, g =
        match repeat.(i) with
        | true ->
            let j = i - 1 - Prng.int rng (min i repeat_window) in
            let e = Option.get entries.(j) in
            (e.src, e.g)
        | false ->
            let k = !fresh in
            incr fresh;
            ( i,
              Instances.ring ~seed:(Prng.int rng 0x3fffffff)
                ~n:(8 + (k mod 9))
                dists.(k mod Array.length dists) )
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Serial.to_string g));
      entries.(i) <- Some { src; g; file }
    done;
    Array.map Option.get entries
  in
  let cs = Array.init count corpus in
  let cleanup () =
    Array.iter (Array.iter (fun e -> Sys.remove e.file)) cs;
    Sys.rmdir dir
  in
  (cs, cleanup)

let run_batch entries =
  let ctx =
    Engine.Ctx.make ~domains:batch_domains
      ~cache:(Engine.Cache.create ~capacity:batch_cache ())
      ()
  in
  let busy = Array.make (Array.length entries) 0. in
  let host = Array.make (Array.length entries) 0. in
  let dom = Array.make (Array.length entries) 0 in
  let t0 = now () in
  let results =
    Engine.run_batch_r ~ctx
      ~f:(fun ctx (i, file) ->
        dom.(i) <- (Domain.self () :> int);
        host.(i) <- host_probe now;
        let t = now () in
        let r =
          Obs.Span.with_ "bench.op" (fun () ->
              match Serial.load_r file with
              | Error e -> Ringshare_error.error e
              | Ok g -> (Graph.n g, Incentive.best_attack ~ctx g))
        in
        busy.(i) <- now () -. t;
        r)
      (Array.mapi (fun i e -> (i, e.file)) entries)
  in
  let wall = now () -. t0 in
  (* the probes ran on the batch's domains: take their share out *)
  let probes = Array.fold_left ( +. ) 0. host /. float_of_int batch_domains in
  (* each domain's median probe; the batch's is their mean *)
  let of_domain d =
    median (List.filteri (fun i _ -> dom.(i) = d) (Array.to_list host))
  in
  let doms = List.sort_uniq compare (Array.to_list dom) in
  let dmed = List.map (fun d -> (d, of_domain d)) doms in
  let batch_host =
    List.fold_left (fun acc (_, h) -> acc +. h) 0. dmed
    /. float_of_int (List.length dmed)
  in
  (wall -. probes, busy, batch_host, Array.map (fun d -> List.assoc d dmed) dom,
   results)

let same_result (n1, (a1 : Incentive.attack)) (n2, (a2 : Incentive.attack)) =
  n1 = n2 && a1.v = a2.v && Q.equal a1.w1 a2.w1
  && Q.equal a1.utility a2.utility && Q.equal a1.honest a2.honest
  && Q.equal a1.ratio a2.ratio

(* Each item must be Ok, in range, witness-checked, and identical to the
   first occurrence of its instance in the same batch, whose result the
   repeat may have taken from the shared cache. *)
let check_batch entries
    (results : (int * Incentive.attack, Ringshare_error.t) result array) =
  Array.mapi
    (fun i r ->
      match (r, results.(entries.(i).src)) with
      | Ok ((n, (a : Incentive.attack)) as x), Ok first ->
          checked (fun () ->
              n = Graph.n entries.(i).g
              && in_theorem8_range a.ratio
              && witness_holds entries.(i).g ~v:a.v a
              && same_result x first)
      | _ -> false)
    results

let batch_cached ~seed ~size =
  let count, size =
    match size with
    | Full -> (corpora, corpus_size)
    | Warmup -> (1, warmup_ops)
    | Reference -> (reference_corpora, reference_corpus_size)
  in
  let cs, cleanup = write_corpora ~seed ~count ~size in
  (* parse every file once: set-up validates the corpus round-trips *)
  let round_trips e =
    match Serial.load_r e.file with
    | Ok g -> String.equal (Serial.digest g) (Serial.digest e.g)
    | Error _ -> false
  in
  if not (Array.for_all (Array.for_all round_trips) cs) then begin
    cleanup ();
    failwith "corpus file does not round-trip"
  end;
  let run c =
    let entries = cs.(c) in
    let wall, busy, host, lat_host, results = run_batch entries in
    let ratio =
      Array.map
        (function
          | Ok (_, (a : Incentive.attack)) -> Q.to_float a.ratio
          | Error _ -> 0.)
        results
    in
    { wall; host; lat = busy; lat_host; ok = check_batch entries results; ratio }
  in
  let pass = min batch_pass count in
  let probe () =
    for c = 0 to pass - 1 do
      Array.iter
        (fun e ->
          ignore (Obs.Span.with_ "bench.digest" (fun () -> Serial.digest e.g));
          ignore
            (Obs.Span.with_ "bench.load" (fun () -> Serial.load_r e.file)))
        cs.(c)
    done
  in
  {
    pool = count;
    pass;
    run;
    domains = batch_domains;
    smooth = 0;
    probe;
    cleanup;
  }

let make_workload name =
  match name with
  | "exact-certify" -> exact_certify
  | "grid-screen" -> grid_screen
  | "batch-cached" -> batch_cached
  | _ -> usage ()

(* Set-up: build the inputs (for batch-cached also write and parse the
   corpora), then warm up on the fixed warm-up instances.  The time is
   scaled to the reference host by probes made before and after. *)
let setup name ~seed =
  let make = make_workload name and clock = clock_of name in
  let before = host_probes clock 3 in
  let t0 = clock () in
  let w = make ~seed ~size:Full in
  let warm = make ~seed:warmup_seed ~size:Warmup in
  let ok =
    List.for_all
      (fun i -> Array.for_all Fun.id (warm.run i).ok)
      (List.init warm.pool Fun.id)
  in
  warm.cleanup ();
  let dt = clock () -. t0 in
  let dt = dt *. probe_ref_s /. ((before +. host_probes clock 3) /. 2.) in
  if not ok then begin
    w.cleanup ();
    failwith "warm-up output rejected"
  end;
  (w, dt)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

(* Major-heap high-water mark of the running chunk, sampled at the end of
   every major GC cycle and at the chunk's end.  The process-wide
   [top_heap_words] would include set-up, and one late major cycle in a
   run moves it by half; the median of per-chunk peaks does not. *)
let heap_hw = Atomic.make 0

let sample_heap () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  let rec raise_to () =
    let c = Atomic.get heap_hw in
    if w > c && not (Atomic.compare_and_set heap_hw c w) then raise_to ()
  in
  raise_to ()

let () = ignore (Gc.create_alarm sample_heap)

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let print_result ~attempted ~failed metrics =
  let field (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))

(* ------------------------------------------------------------------ *)
(* Measured (untraced) run                                              *)
(* ------------------------------------------------------------------ *)

(* Chunks' total timed seconds and per-op seconds, in order, scaled to
   the reference host. *)
let scaled w chunks =
  let chunks = Array.of_list chunks in
  let n = Array.length chunks in
  let timed = ref 0. and lat = ref [] in
  Array.iteri
    (fun j (c : chunk) ->
      let lo = max 0 (j - w.smooth) and hi = min (n - 1) (j + w.smooth) in
      let host =
        median (List.init (hi - lo + 1) (fun k -> chunks.(lo + k).host))
      in
      timed := !timed +. (c.wall *. probe_ref_s /. host);
      (* an op's own host time, relative to its chunk's, smoothed alike *)
      Array.iteri
        (fun k l ->
          let h = host *. c.lat_host.(k) /. c.host in
          lat := (l *. probe_ref_s /. h) :: !lat)
        c.lat)
    chunks;
  (!timed, List.rev !lat)

let measure args w reference ~setup_times =
  (* part K's share of chunks [0, n) *)
  let share n = (args.part * n / args.parts, (args.part + 1) * n / args.parts) in
  let ok = ref 0 and attempted = ref 0 in
  let ratio_sum = ref 0. and ratio_ops = ref 0 in
  let raw = ref 0. and chunks = ref [] and peaks = ref [] in
  let tally (c : chunk) =
    Array.iter (fun b -> if b then incr ok) c.ok;
    attempted := !attempted + Array.length c.ok
  in
  let first, stop = share w.pool in
  let i = ref first in
  while !i < stop && (!i = first || !raw < args.seconds) do
    Atomic.set heap_hw 0;
    let c = w.run !i in
    sample_heap ();
    peaks := mib (Atomic.get heap_hw) :: !peaks;
    raw := !raw +. c.wall;
    chunks := c :: !chunks;
    tally c;
    incr i
  done;
  let timed, lat = scaled w (List.rev !chunks) in
  let lat = List.map (fun l -> l *. 1000.) lat in
  (* untimed: this part's share of the fixed reference set *)
  let first, stop = share reference.pool in
  for j = first to stop - 1 do
    let c = reference.run j in
    Array.iter (fun r -> ratio_sum := !ratio_sum +. r) c.ratio;
    ratio_ops := !ratio_ops + Array.length c.ratio;
    tally c
  done;
  let floats l =
    "[" ^ String.concat ", " (List.map (Printf.sprintf "%.17g") l) ^ "]"
  in
  Printf.printf
    "{\"attempted\": %d, \"failed\": %d, \"timed_s\": %.17g, \
     \"ratio_sum\": %.17g, \"ratio_ops\": %d, \"setup_s\": %s, \
     \"op_ms\": %s, \"peak_mb\": %s}\n"
    !attempted (!attempted - !ok) timed !ratio_sum !ratio_ops
    (floats (Array.to_list setup_times))
    (floats lat) (floats (List.rev !peaks))

(* ------------------------------------------------------------------ *)
(* One pass, traced or not                                              *)
(* ------------------------------------------------------------------ *)

let segments path = String.split_on_char '/' path
let last l = List.nth l (List.length l - 1)

(* span records under [root/], keeping only outermost [name] spans *)
let outermost records ~root ~name =
  List.filter
    (fun (r : Obs.Span.record) ->
      match segments r.path with
      | top :: rest when String.equal top root && rest <> [] ->
          String.equal (last rest) name
          && List.length (List.filter (String.equal name) rest) = 1
      | _ -> false)
    records

let span_s records =
  float_of_int
    (List.fold_left (fun acc (r : Obs.Span.record) -> acc + r.total_ns) 0 records)
  /. 1e9

(* mean span duration, in seconds times [scale] *)
let span_mean records scale =
  let n = List.fold_left (fun acc (r : Obs.Span.record) -> acc + r.count) 0 records in
  if n = 0 then 0. else span_s records *. scale /. float_of_int n

let exact_path records path =
  List.filter (fun (r : Obs.Span.record) -> String.equal r.path path) records

let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let pass args w =
  Obs.reset ();
  let g0 = Gc.quick_stat () in
  let s0 = Obs.snapshot () in
  let timed = ref 0. and busy = ref 0. and ok = ref 0 and attempted = ref 0 in
  let chunks = ref [] in
  for i = 0 to w.pass - 1 do
    let c = w.run i in
    timed := !timed +. c.wall;
    Array.iter (fun l -> busy := !busy +. l) c.lat;
    Array.iter (fun b -> if b then incr ok) c.ok;
    attempted := !attempted + Array.length c.ok;
    chunks := c :: !chunks
  done;
  (* op time on the reference host, for trace.overhead_share *)
  let busy_ref = List.fold_left ( +. ) 0. (snd (scaled w (List.rev !chunks))) in
  let d = Obs.diff (Obs.snapshot ()) s0 in
  let g1 = Gc.quick_stat () in
  w.probe ();
  let records = Obs.Span.records () in
  let count sub name = Obs.counter_value d ~subsystem:sub name in
  let inc = count "incentive" and dec = count "decomposition" in
  let eng = count "engine" in
  let breakpoints = span_s (exact_path records "bench.breakpoints") in
  let bp_decompose =
    span_s (outermost records ~root:"bench.breakpoints" ~name:"decompose")
  in
  let exact_s = span_s (exact_path records "bench.op/best_split_exact") in
  let decompose = outermost records ~root:"bench.op" ~name:"decompose" in
  let attempted = !attempted in
  if args.traced then begin
    mkdir_p ".bench_out";
    Obs.write_json ~spans:true d
      ~path:
        (Printf.sprintf ".bench_out/counters-%s-seed%d.json" args.workload
           args.seed)
  end;
  print_result ~attempted ~failed:(attempted - !ok)
    (("trace.op_s", "s", !busy)
     :: ("trace.op_ref_s", "s", busy_ref)
     ::
     (if not args.traced then []
      else
        [ ("core.breakpoints_s", "s", breakpoints);
          ("core.breakpoints_self_s", "s", breakpoints -. bp_decompose);
          ("core.maximise_s", "s",
            if exact_s > 0. then exact_s -. breakpoints else 0.);
          ("core.exact_pieces", "count", float_of_int (inc "exact_pieces"));
          ("core.exact_events", "count", float_of_int (inc "exact_events"));
          ("core.events_per_piece", "share",
            share (inc "exact_events") (inc "exact_pieces"));
          ("core.exact_evals", "count", float_of_int (inc "exact_evals"));
          ("core.sweep_points", "count", float_of_int (inc "sweep_points"));
          ("core.memo_hit_share", "share",
            share (inc "memo_hits") (inc "memo_lookups"));
          ("bottleneck.decompose_s", "s", span_s decompose);
          ("bottleneck.decompose_calls", "count", float_of_int (dec "computes"));
          ("bottleneck.decompose_us_mean", "us", span_mean decompose 1e6);
          ("bottleneck.dinkelbach_iters_per_solve", "count",
            share (dec "dinkelbach_iterations") (dec "dinkelbach_solves"));
          ("bottleneck.q_fallback_share", "share",
            share
              (dec "chain_driver_q_fallback_solves")
              (dec "chain_driver_component_solves"));
          ("engine.cache_lookups", "count", float_of_int (eng "cache_lookups"));
          ("engine.cache_hit_share", "share",
            share (eng "cache_hits") (eng "cache_lookups"));
          ("engine.cache_evictions", "count",
            float_of_int (eng "cache_evictions"));
          ("graph.digest_us", "us",
            span_mean (exact_path records "bench.digest") 1e6);
          ("graph.load_ms", "ms",
            span_mean (exact_path records "bench.load") 1e3);
          ("parallel.busy_share", "share",
            !busy /. (!timed *. float_of_int w.domains));
          ("parallel.tasks", "count", float_of_int (count "parwork" "tasks"));
          ("gc.minor_collections", "count",
            float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
          ("gc.major_collections", "count",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ]))

(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  if args.traced then begin
    Obs.set_metrics true;
    Obs.set_spans true
  end;
  (* set up [setups] times and keep the last workload; run.py reports the
     median set-up time *)
  let rec go k times =
    let w, dt = setup args.workload ~seed:args.seed in
    if k = 1 then (w, Array.of_list (dt :: times))
    else begin
      w.cleanup ();
      go (k - 1) (dt :: times)
    end
  in
  let w, times = go setups [] in
  Fun.protect ~finally:w.cleanup (fun () ->
      match args.mode with
      | Measure ->
          let reference =
            make_workload args.workload ~seed:reference_seed ~size:Reference
          in
          Fun.protect ~finally:reference.cleanup (fun () ->
              measure args w reference ~setup_times:times)
      | Pass -> pass args w)
