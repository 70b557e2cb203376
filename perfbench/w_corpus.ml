(* Workload [corpus-query]: build the corpus index once (the write
   path), then a single closed-loop client issues a seeded query mix
   through [Jindex.Query.run ~jobs:2] (the read path).  The postings
   classes set the median; the filtered class reparses candidates
   (jsont + jlogic) and sets the tail. *)

module Prng = Jworkload.Prng
module Gen = Jworkload.Gen_json

type input = {
  corpus : string;  (* the file the index is built from *)
  lines : string array;  (* its non-blank lines: one verdict each *)
  bytes : int;
  bad : int list;  (* indexes of the malformed lines *)
}

(* One API record in four amid heterogeneous documents, plus a few
   truncated lines.  Shared with the [serve] workload's small index. *)
let corpus_lines rng ~target =
  let lines = ref [] and written = ref 0 and n = ref 0 and bad = ref [] in
  while !written < target do
    let v =
      if !n mod 4 = 0 then Gen.api_record rng (1 + (!n mod 8))
      else Gen.sized rng (64 + (!n mod 257))
    in
    let line = Jsont.Printer.compact v in
    let line =
      if !n mod 500 = 7 then begin
        bad := !n :: !bad;
        String.sub line 0 (String.length line / 2)
      end
      else line
    in
    lines := line :: !lines;
    written := !written + String.length line + 1;
    incr n
  done;
  (Array.of_list (List.rev !lines), List.rev !bad)

let write_corpus path lines =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let generate (ctx : Ctx.t) =
  let rng = Prng.create ((ctx.seed * 6151) + 3) in
  let target = match ctx.size with Ctx.Full -> 4 * 1024 * 1024 | Ctx.Tiny -> 120_000 in
  let lines, bad = corpus_lines rng ~target in
  let corpus = Ctx.path ctx "corpus.ndjson" in
  write_corpus corpus lines;
  { corpus; lines; bytes = Array.fold_left (fun a l -> a + String.length l + 1) 0 lines; bad }

(* ---- the query mix --------------------------------------------------- *)

type cls = Core | Eq | Filtered

let cls_name = function Core -> "core" | Eq -> "eq" | Filtered -> "filtered"

let keys = [ "id"; "name"; "value"; "items"; "meta"; "tags"; "type"; "data"; "next"; "info" ]
let firsts = [ "John"; "Sue"; "Ana"; "Li"; "Zebediah" ]
let statuses = [ "pending"; "shipped"; "delivered"; "cancelled" ]

let templates = function Core | Eq -> 6 | Filtered -> 4

(* Template [t] of a class, its parameters drawn from [rng]. *)
let template rng cls t =
  match cls with
  | Core -> (
    let k () = Prng.choose rng keys in
    match t with
    | 0 -> "<.name.first>"
    | 1 -> Printf.sprintf "<.orders[%d].lines[%d].sku>" (Prng.int rng 8) (Prng.int rng 4)
    | 2 -> Printf.sprintf "<.%s>" (k ())
    | 3 -> Printf.sprintf "<.%s.%s>" (k ()) (k ())
    | 4 -> Printf.sprintf "<.name.first> & !<.orders[%d]>" (Prng.int rng 8)
    | _ -> Printf.sprintf "<.%s[%d]>" (k ()) (Prng.int rng 4))
  | Eq -> (
    match t with
    | 0 -> Printf.sprintf "eq(.name.first, %S)" (Prng.choose rng firsts)
    | 1 -> Printf.sprintf "eq(.age, %d)" (Prng.in_range rng 18 90)
    | 2 ->
      let i = Prng.int rng 8 and j = Prng.int rng 4 in
      Printf.sprintf "eq(.orders[%d].lines[%d].sku, \"SKU-%d-%d\")" i j i j
    | 3 -> Printf.sprintf "eq(.orders[%d].status, %S)" (Prng.int rng 4) (Prng.choose rng statuses)
    | 4 ->
      Printf.sprintf "eq(.name.first, %S) | eq(.name.first, %S)" (Prng.choose rng firsts)
        (Prng.choose rng firsts)
    | _ -> Printf.sprintf "<.id> & eq(.name.last, %S)" (Prng.choose rng [ "Doe"; "Smith"; "Silva" ]))
  | Filtered -> (
    match t with
    | 0 -> Printf.sprintf "<.orders[0:*]?(eq(.status, %S))>" (Prng.choose rng statuses)
    | 1 -> "<.hobbies[-1]>"
    | 2 -> Printf.sprintf "<.orders[-1].lines[%d]>" (Prng.int rng 3)
    | _ -> Printf.sprintf "<.orders[0:*]?(eq(.total, %d))>" (Prng.in_range rng 5 500))

(* Every template of a class [per] times, distinct queries only. *)
let pool rng cls per =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  for t = 0 to templates cls - 1 do
    let rec fresh tries =
      let q = template rng cls t in
      if Hashtbl.mem seen q && tries > 0 then fresh (tries - 1) else q
    in
    for _ = 1 to per do
      let q = fresh 20 in
      if not (Hashtbl.mem seen q) then begin
        Hashtbl.add seen q ();
        out := (cls, q, Jlogic.Jnl.parse_exn q) :: !out
      end
    done
  done;
  Array.of_list (List.rev !out)

(* A fixed class pattern (45% core, 40% eq, 15% filtered); within a
   class the loop cycles through a seeded shuffle of the pool, so every
   seed runs the same mix of templates. *)
let pattern =
  [| Core; Eq; Core; Eq; Core; Eq; Filtered; Core; Eq; Core;
     Eq; Core; Eq; Filtered; Core; Eq; Core; Eq; Core; Filtered |]

type query = { cls : cls; text : string; phi : Jlogic.Jnl.form; oracle : (int * string) array }

(* The reparse + [Jnl_eval.holds] oracle, on a seeded sample of the
   documents (every malformed line included), computed once per query. *)
let oracle_verdict line phi =
  match Jsont.Tree.of_string ~budget:(Obs.Budget.create ()) line with
  | Error e -> "error: " ^ Format.asprintf "%a" Jsont.Parser.pp_error e
  | Ok tree -> (
    let ctx = Jlogic.Jnl_eval.context ~budget:(Obs.Budget.create ()) tree in
    match Jlogic.Jnl_eval.holds ctx Jsont.Tree.root phi with
    | b -> string_of_bool b
    | exception Failure m -> "error: " ^ m
    | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r)

let queries (ctx : Ctx.t) inp =
  (* the pools are the same for every seed (their parameters move query
     cost more than the corpus does); the order and the oracle sample
     follow the seed *)
  let fixed = Prng.create 2017 in
  let pools = [| pool fixed Core 3; pool fixed Eq 3; pool fixed Filtered 2 |] in
  let rng = Prng.create ((ctx.seed * 31) + 5) in
  let n = Array.length inp.lines in
  let sample_size = min n 120 in
  let mk (cls, text, phi) =
    let picks = List.sort_uniq compare (inp.bad @ List.init sample_size (fun _ -> Prng.int rng n)) in
    { cls; text; phi;
      oracle = Array.of_list (List.map (fun i -> (i, oracle_verdict inp.lines.(i) phi)) picks) }
  in
  let pools = Array.map (Array.map mk) pools in
  if ctx.corrupt then begin
    let q = pools.(0).(0) in
    let i, v = q.oracle.(0) in
    q.oracle.(0) <- (i, if v = "true" then "false" else "true")
  end;
  let pools = Array.map (fun p -> Array.of_list (Prng.shuffle rng (Array.to_list p))) pools in
  let slot = function Core -> 0 | Eq -> 1 | Filtered -> 2 in
  let turn = Array.make 3 0 in
  (* the next query of the closed loop *)
  fun k ->
    let c = slot pattern.(k mod Array.length pattern) in
    let p = pools.(c) in
    turn.(c) <- turn.(c) + 1;
    p.(turn.(c) mod Array.length p)

let run_query r q =
  match Jindex.Query.run ~jobs:Ctx.jobs r q.phi with
  | Ok v -> v
  | Error m -> failwith ("index query failed: " ^ m)

let check_query inp q verdicts =
  Report.check
    (Array.length verdicts = Array.length inp.lines
    && Array.for_all
         (fun (i, expected) -> Jindex.Query.verdict_string verdicts.(i) = expected)
         q.oracle)

let build_open inp idx =
  let stats =
    match Jindex.Writer.build ~jobs:Ctx.jobs ~corpus:inp.corpus ~output:idx () with
    | Ok s -> s
    | Error m -> failwith ("index build failed: " ^ m)
  in
  match Jindex.Reader.open_ idx with
  | Ok r -> (stats, r)
  | Error m -> failwith ("index open failed: " ^ m)

let describe inp =
  Report.line "# corpus-query input: %d documents (%d malformed), %.1f MB" (Array.length inp.lines)
    (List.length inp.bad) (float_of_int inp.bytes /. 1e6)

(* The closed loop for [seconds]: per query its latency (ms).  The
   check, and [observe] (given the query, its verdicts and how many
   documents it reparsed), run between queries, outside the timed call. *)
let loop ?(observe = fun _ _ _ -> ()) inp r next seconds =
  let lat = Report.samples () in
  Ctx.for_seconds seconds (fun k ->
      let q = next k in
      let reparsed0 = Obs.Metrics.counter_value "index.query.reparsed" in
      let v, dt =
        Span.run ~id:k ~work:1 ("jindex.query." ^ cls_name q.cls) (fun () ->
            Ctx.timed (fun () -> run_query r q))
      in
      check_query inp q v;
      observe q v (Obs.Metrics.counter_value "index.query.reparsed" - reparsed0);
      Report.push lat (dt *. 1e3));
  Report.to_array lat

let qps lat = float_of_int (Array.length lat) /. (Report.sum lat /. 1e3)

let e2e (ctx : Ctx.t) =
  let inp = generate ctx in
  describe inp;
  let idx = Ctx.path ctx "corpus.idx" in
  let setup = Ctx.setup (fun () -> build_open inp idx) in
  let stats, r =
    Ctx.set_up_before setup ~reps:5 ~wall:3.0 ~cleanup:(fun (_, r) -> Jindex.Reader.close r)
  in
  let setup_s, reps = Ctx.setup_s setup in
  let next = queries ctx inp in
  ignore (loop inp r next 0.2);
  (* a calibration slice every 20 queries *)
  let n = ref 0 in
  let observe _ _ _ =
    incr n;
    if !n mod 20 = 0 then Calib.slice ()
  in
  let lat = loop ~observe inp r next ctx.seconds in
  let q = qps lat and p50 = Report.median lat in
  Report.metric "setup_s" "s" setup_s ~n:reps ~note:"(median index build + open)";
  Report.metric "queries_per_s" "queries/s" q ~n:(Array.length lat)
    ~note:"(closed loop, one client)";
  Report.metric "query_p50_ms" "ms" p50 ~n:(Array.length lat);
  Report.tail_metric ~prefix:"query" ~unit_:"ms" lat;
  Report.metric "index_bytes_per_corpus_byte" "ratio"
    (float_of_int stats.Jindex.Writer.bytes /. float_of_int inp.bytes);
  Calib.emit ~setup_s ~throughput:q ~p50;
  Jindex.Reader.close r

(* ---- traced run ---------------------------------------------------- *)

let layers (ctx : Ctx.t) ~primary =
  let inp = generate ctx in
  describe inp;
  let idx = Ctx.path ctx "corpus.idx" in
  let _, r = build_open inp idx in
  let next = queries ctx inp in
  ignore (loop inp r next 0.2);
  let untraced = qps (loop inp r next primary) in
  Trace.enable true;
  let c name = Obs.Metrics.counter_value name in
  let reparsed0 = c "index.query.reparsed"
  and hits0 = c "index.query.value_hits"
  and reorders0 = c "index.plan.reorders" in
  (* precision: the true verdicts of the filtered queries over the
     documents they reparsed *)
  let trues = ref 0 and filtered_reparsed = ref 0 in
  let observe q v reparsed =
    if q.cls = Filtered then begin
      Array.iter (fun x -> if x = Jindex.Query.True then incr trues) v;
      filtered_reparsed := !filtered_reparsed + reparsed
    end
  in
  let lat = loop ~observe inp r next primary in
  Trace.overhead "corpus-query" ~untraced ~traced:(qps lat);
  let per_query name base = float_of_int (c name - base) /. float_of_int (Array.length lat) in
  Trace.layer "jindex.reparsed_per_query" "docs/query" (per_query "index.query.reparsed" reparsed0);
  Trace.layer "jindex.candidate_precision" "ratio"
    (float_of_int !trues /. float_of_int (max 1 !filtered_reparsed));
  Trace.layer "jindex.value_hits_per_query" "count/query" (per_query "index.query.value_hits" hits0);
  Trace.layer "jindex.plan_reorders" "count/query" (per_query "index.plan.reorders" reorders0);
  let spans = Span.all () in
  List.iter
    (fun cls ->
      let d = Span.durations_ms ("jindex.query." ^ cls) spans in
      Trace.layer ~n:(Array.length d) ("jindex.query_ms." ^ cls) "ms" (Report.median d))
    [ "core"; "eq"; "filtered" ];
  (* jlogic: holds on the documents the filtered queries reparse, trees
     built outside the spans *)
  let seen = Hashtbl.create 8 in
  for k = 0 to 199 do
    let q = next k in
    if q.cls = Filtered && not (Hashtbl.mem seen q.text) then begin
      Hashtbl.add seen q.text ();
      Array.iter
        (fun (i, _) ->
          match Jsont.Tree.of_string inp.lines.(i) with
          | Error _ -> ()
          | Ok tree ->
            Span.run ~id:i ~work:1 "jlogic.jnl_holds" (fun () ->
                let ctx = Jlogic.Jnl_eval.context ~budget:(Obs.Budget.create ()) tree in
                ignore (Jlogic.Jnl_eval.holds ctx Jsont.Tree.root q.phi)))
        q.oracle
    end
  done;
  (* jindex: build and open, traced *)
  Jindex.Reader.close r;
  ignore
    (Span.run ~work:inp.bytes "jindex.build" (fun () ->
         Jindex.Writer.build ~jobs:Ctx.jobs ~corpus:inp.corpus ~output:idx ()));
  for _ = 1 to 5 do
    match Span.run "jindex.open" (fun () -> Jindex.Reader.open_ idx) with
    | Ok r -> Jindex.Reader.close r
    | Error m -> failwith m
  done;
  let spans = Span.all () in
  let build_s, _ = Span.totals "jindex.build" spans in
  Trace.layer "jlogic.jnl_holds_ns_per_doc" "ns/doc" (Span.ns_per_work "jlogic.jnl_holds" spans);
  Trace.layer "jindex.build_s" "s" build_s;
  Trace.layer "jindex.build_mb_per_s" "MB/s" (float_of_int inp.bytes /. 1e6 /. build_s);
  Trace.layer "jindex.open_ms" "ms" (Report.median (Span.durations_ms "jindex.open" spans));
  Trace.enable false
