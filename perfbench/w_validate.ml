(* Workload [validate]: NDJSON through the compiled catalog schema, the
   [validate --stream --jobs 2] path against the [--files-from] tree
   path.  jsont and jschema do nearly all the work. *)

module Value = Jsont.Value
module Plan = Jschema.Validate.Plan
module Prng = Jworkload.Prng

type input = {
  schema_text : string;
  lines : (int * string) array;  (* (line id, text) *)
  chunks : (int * string) array array;  (* the timing windows *)
  bytes : int;
  n_large : int;
  n_bad : int;
}

(* The catalog schema plus two top-level properties the large documents
   fill: [blob] (unconstrained: the stream executor skips it) and
   [readings] (items-constrained, no uniqueItems: streamed element by
   element, no spill). *)
let schema_text () =
  Ctx.replace_first Jworkload.Catalog.catalog_schema ~sub:{|],"properties":{"f00"|}
    ~by:
      ({|],"properties":{"blob":{},|}
      ^ {|"readings":{"type":"array","items":{"type":"number","maximum":1000000}},"f00"|})

let large_doc rng ~blob ~readings =
  let members =
    match Jworkload.Catalog.catalog_doc rng with Value.Obj kvs -> kvs | _ -> []
  in
  let readings =
    List.init readings (fun i ->
        (* one large document in three fails at its very last reading *)
        if i = readings - 1 && Prng.int rng 3 = 0 then Value.Str "late"
        else Value.Num (Prng.int rng 100_000))
  in
  Value.Obj
    (members
    @ [ ("blob", Value.Arr (List.init blob (fun _ -> Jworkload.Gen_json.sized rng 64)));
        ("readings", Value.Arr readings) ])

let generate (ctx : Ctx.t) =
  let rng = Prng.create ((ctx.seed * 7919) + 1) in
  (* [chunks] windows of [chunk] lines, one large document each *)
  let chunks, chunk, blob, readings =
    match ctx.size with
    | Ctx.Full -> (12, 333, 300, 15_000)
    | Ctx.Tiny -> (2, 40, 12, 400)
  in
  let n_large = ref 0 and n_bad = ref 0 in
  let lines =
    Array.init (chunks * chunk) (fun i ->
        let text =
          if i mod chunk = chunk / 2 then begin
            incr n_large;
            Value.to_string (large_doc rng ~blob ~readings)
          end
          else
            let t = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
            if i mod 100 = 37 then begin
              (* ~1% malformed: truncated, or trailing garbage *)
              incr n_bad;
              if Prng.bool rng then String.sub t 0 (1 + Prng.int rng (String.length t - 1))
              else t ^ " x"
            end
            else t
        in
        (i, text))
  in
  { schema_text = schema_text ();
    lines;
    chunks = Array.init chunks (fun c -> Array.sub lines (c * chunk) chunk);
    bytes = Array.fold_left (fun a (_, l) -> a + String.length l + 1) 0 lines;
    n_large = !n_large;
    n_bad = !n_bad }

let compile text = Plan.compile (Jschema.Parse.of_string_exn text)

let tree_cell plan text =
  match Jsont.Tree.of_string ~budget:(Obs.Budget.create ()) text with
  | Error e -> Ctx.cell_of_result (Error e)
  | Ok t -> (
    match Plan.run_tree ~budget:(Obs.Budget.create ()) plan t with
    | b -> Ctx.cell_of_result (Ok b)
    | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r)

(* One sharded pass; per line its cell and the time the lane spent on
   it, plus the pass's wall time. *)
let pass name cell plan lines =
  Span.run ~work:(Array.length lines) ("validate.pass." ^ name) @@ fun () ->
  let parent = Span.current () in
  Ctx.timed (fun () ->
      Par.Batch.map_pool (Ctx.pool ())
        (fun (i, text) ->
          let t0 = Ctx.now () in
          let c = Span.run ~parent ~id:i ~work:1 ("jschema.lane." ^ name) (fun () -> cell plan text) in
          (c, Ctx.now () -. t0))
        lines)

let stream_pass = pass "stream" Ctx.stream_cell
let tree_pass = pass "tree" tree_cell

(* Count the lines whose cell differs from the reference. *)
let check_pass reference lines results =
  let bad = ref 0 in
  Array.iteri (fun k (c, _) -> if c <> reference.(fst lines.(k)) then incr bad) results;
  Report.checked (Array.length results) ~bad:!bad

(* The stream verdicts of a seeded sample against the structural
   interpreter; malformed lines must carry the parser's error. *)
let check_interpreter (ctx : Ctx.t) inp reference =
  let schema = Jschema.Parse.of_string_exn inp.schema_text in
  let rng = Prng.create (ctx.seed + 17) in
  let n = Array.length inp.lines in
  for _ = 1 to min n 64 do
    let i = Prng.int rng n in
    let expected =
      match Jsont.Parser.parse (snd inp.lines.(i)) with
      | Ok v -> Ctx.cell_of_result (Ok (Jschema.Validate.validates schema v))
      | Error e -> Ctx.cell_of_result (Error e)
    in
    Report.check (expected = reference.(i))
  done

let describe inp =
  Report.line "# validate input: %d lines (%d large, %d malformed), %.1f MB"
    (Array.length inp.lines) inp.n_large inp.n_bad
    (float_of_int inp.bytes /. 1e6)

(* The reference cells: one untimed stream pass over the windows (it
   also warms up). *)
let reference (ctx : Ctx.t) plan inp =
  let reference =
    Array.concat
      (List.mapi
         (fun k lines ->
           Ctx.collect k;
           Array.map fst (fst (stream_pass plan lines)))
         (Array.to_list inp.chunks))
  in
  if ctx.corrupt then reference.(0) <- Ctx.flip_cell reference.(0);
  reference

(* Sample the major heap at the end of every major cycle. *)
let heap_peak = ref 0

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Growth of the major heap over stream passes across the first three
   windows, above the baseline after a compaction (MB). *)
let stream_heap_growth inp reference plan =
  Gc.compact ();
  let base = heap_words () in
  heap_peak := base;
  let alarm = Gc.create_alarm (fun () -> heap_peak := max !heap_peak (heap_words ())) in
  Array.iter
    (fun lines -> check_pass reference lines (fst (stream_pass plan lines)))
    (Array.sub inp.chunks 0 (min 3 (Array.length inp.chunks)));
  heap_peak := max !heap_peak (heap_words ());
  Gc.delete_alarm alarm;
  float_of_int ((!heap_peak - base) * (Sys.word_size / 8)) /. 1e6

(* The passes run window after window, alternating, for [seconds] — so
   each sees the same machine conditions.  Per pass its windows; per
   line of the first pass its lane time (ms). *)
let run_phase ?(between = ignore) inp reference seconds plan passes =
  let rates = List.map (fun p -> (p, Report.rate ())) passes in
  let lat = Report.samples () in
  Ctx.for_seconds seconds (fun k ->
      let lines = inp.chunks.(k mod Array.length inp.chunks) in
      List.iteri
        (fun j (pass, r) ->
          let results, wall = pass plan lines in
          check_pass reference lines results;
          Report.window r ~work:(Array.length results) ~time:wall;
          if j = 0 then Array.iter (fun (_, dt) -> Report.push lat (dt *. 1e3)) results)
        rates;
      between k);
  (List.map snd rates, Report.to_array lat)

let e2e (ctx : Ctx.t) =
  let inp = generate ctx in
  describe inp;
  let setup = Ctx.setup (fun () -> compile inp.schema_text) in
  let plan = Ctx.set_up_before setup ~reps:5 ~wall:0.5 in
  let reference = reference ctx plan inp in
  check_interpreter ctx inp reference;
  let peak_mb = stream_heap_growth inp reference plan in
  let stream, tree, s_lat =
    let between k =
      ignore (Ctx.set_up setup);
      Calib.slice ();
      Ctx.collect k
    in
    match run_phase ~between inp reference ctx.seconds plan [ stream_pass; tree_pass ] with
    | [ s; t ], lat -> (s, t, lat)
    | _ -> assert false
  in
  let p50 = Report.median s_lat in
  let setup_s, reps = Ctx.setup_s setup in
  Report.metric "setup_s" "s" setup_s ~n:reps ~note:"(median schema parse + compile)";
  Report.rate_metric "stream_docs_per_s" "docs/s" stream;
  Report.rate_metric "tree_docs_per_s" "docs/s" tree;
  Report.metric "peak_heap_mb" "MB" peak_mb ~n:1;
  Report.metric "stream_doc_p50_ms" "ms" p50 ~n:(Array.length s_lat);
  Report.tail_metric ~prefix:"stream_doc" ~unit_:"ms" s_lat;
  Calib.emit ~setup_s ~throughput:(Report.per_s stream) ~p50

(* ---- traced run ---------------------------------------------------- *)

let layers (ctx : Ctx.t) ~primary =
  let inp = generate ctx in
  describe inp;
  let plan = compile inp.schema_text in
  let reference = reference ctx plan inp in
  (* primary throughput untraced, then traced *)
  let primary_tput () =
    match run_phase ~between:Ctx.collect inp reference primary plan [ stream_pass ] with
    | [ r ], _ -> Report.per_s r
    | _ -> assert false
  in
  let untraced = primary_tput () in
  Trace.enable true;
  let traced = primary_tput () in
  Trace.overhead "validate" ~untraced ~traced;
  (* par: lane busy time over the traced primary passes *)
  let spans = Span.all () in
  let wall, _ = Span.totals "validate.pass.stream" spans in
  let busy, _ = Span.totals "jschema.lane.stream" spans in
  Trace.layer "par.lane_busy_frac" "ratio" (busy /. (wall *. float_of_int Ctx.jobs));
  (* jschema: compile *)
  for _ = 1 to 21 do
    ignore (Span.run "jschema.compile" (fun () -> compile inp.schema_text))
  done;
  (* jsont: lex-only loop, and tree construction; jschema: run_tree on
     the prebuilt trees, chunk by chunk to bound memory *)
  let chunk = 256 in
  let n = Array.length inp.lines in
  Array.iter
    (fun (i, text) ->
      Span.run ~id:i ~work:(String.length text) "jsont.lex" (fun () ->
          let lx = Jsont.Lexer.create text in
          let rec loop () =
            match Jsont.Lexer.pull lx with
            | `Token _ -> loop ()
            | `Await | `End -> ()
          in
          try loop () with Jsont.Lexer.Error _ -> ()))
    inp.lines;
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    let trees =
      Array.init (hi - !i) (fun k ->
          let id, text = inp.lines.(!i + k) in
          Span.run ~id ~work:(String.length text) "jsont.of_string" (fun () ->
              Jsont.Tree.of_string ~budget:(Obs.Budget.create ()) text))
    in
    Array.iteri
      (fun k t ->
        match t with
        | Ok t ->
          let id = fst inp.lines.(!i + k) in
          let v =
            Span.run ~id ~work:1 "jschema.run_tree" (fun () ->
                try Plan.run_tree ~budget:(Obs.Budget.create ()) plan t
                with Obs.Budget.Exhausted _ -> false)
          in
          Report.check (Ctx.cell_of_result (Ok v) = reference.(id))
        | Error _ -> ())
      trees;
    i := hi
  done;
  (* jschema: the stream executor alone, sequentially, with its counters *)
  let c0 name = Obs.Metrics.counter_value name in
  let sk0 = c0 "validate.stream.skipped_bytes"
  and sp0 = c0 "validate.stream.spills"
  and mh0 = c0 "validate.memo.hit" in
  Array.iter
    (fun (id, text) ->
      let c = Span.run ~id ~work:1 "jschema.run_stream" (fun () -> Ctx.stream_cell plan text) in
      Report.check (c = reference.(id)))
    inp.lines;
  let per_doc name base = float_of_int (c0 name - base) /. float_of_int n in
  let spans = Span.all () in
  let lex_ns_per_doc =
    let d, _ = Span.totals "jsont.lex" spans in
    d *. 1e9 /. float_of_int n
  in
  let stream_ns = Span.ns_per_work "jschema.run_stream" spans in
  Trace.layer "jsont.lex_ns_per_byte" "ns/B" (Span.ns_per_work "jsont.lex" spans);
  Trace.layer "jsont.of_string_ns_per_byte" "ns/B" (Span.ns_per_work "jsont.of_string" spans);
  Trace.layer "jschema.compile_ms" "ms" (Report.median (Span.durations_ms "jschema.compile" spans));
  Trace.layer "jschema.run_tree_ns_per_doc" "ns/doc" (Span.ns_per_work "jschema.run_tree" spans);
  Trace.layer "jschema.run_stream_ns_per_doc" "ns/doc" stream_ns;
  Trace.layer "jschema.stream_self_ns_per_doc" "ns/doc" (stream_ns -. lex_ns_per_doc);
  Trace.layer "jschema.skipped_byte_frac" "ratio"
    (float_of_int (c0 "validate.stream.skipped_bytes" - sk0) /. float_of_int inp.bytes);
  Trace.layer "jschema.spills_per_doc" "count/doc" (per_doc "validate.stream.spills" sp0);
  Trace.layer "jschema.memo_hits_per_doc" "count/doc" (per_doc "validate.memo.hit" mh0);
  (* par: the fixed cost of one two-lane batch *)
  for _ = 1 to 41 do
    ignore (Span.run "par.batch.noop" (fun () -> Par.Batch.map ~jobs:Ctx.jobs Fun.id [| 0; 1 |]))
  done;
  Trace.layer "par.batch_fixed_ms" "ms"
    (Report.median (Span.durations_ms "par.batch.noop" (Span.all ())));
  Trace.enable false
