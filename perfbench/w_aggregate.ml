(* Workload [aggregate]: API-record-heavy NDJSON through
   $match/$lookup/$unwind/$project/$group/$sort, the streaming prefix
   sharded at jobs 2 and the blocking suffix sequential — the only
   workload through jquery and the find-filter -> JSL-plan path. *)

module Prng = Jworkload.Prng
module Value = Jsont.Value
module Agg = Jquery.Mongo_agg

let pipeline =
  {|[{"$match": {"age": {"$gte": 30}}},
     {"$lookup": {"from": "members", "localField": "id", "foreignField": "pid", "as": "member"}},
     {"$unwind": {"path": "$member", "preserveNullAndEmptyArrays": true}},
     {"$unwind": "$orders"},
     {"$project": {"st": "$orders.status", "total": "$orders.total", "tier": "$member.tier"}},
     {"$group": {"_id": "$tier", "orders": {"$count": {}},
                 "sum": {"$sum": "$total"}, "hi": {"$max": "$total"}}},
     {"$sort": {"sum": 0}}]|}

(* The $match-only prefix the jlogic layer metric runs. *)
let match_only = {|[{"$match": {"age": {"$gte": 30}}}]|}

type input = {
  texts : string array;
  bytes : int;
  members : Value.t list;  (* the $lookup collection *)
}

let generate (ctx : Ctx.t) =
  let rng = Prng.create ((ctx.seed * 3571) + 13) in
  let n_docs, n_members =
    match ctx.size with Ctx.Full -> (4000, 20_000) | Ctx.Tiny -> (100, 500)
  in
  let texts =
    Array.init n_docs (fun i ->
        Value.to_string
          (if i mod 4 = 3 then
             match Jworkload.Gen_json.sized rng 60 with
             | Value.Obj _ as v -> v
             | v -> Value.Obj [ ("k1", v) ]
           else Jworkload.Gen_json.api_record rng 3))
  in
  let tiers = [ "gold"; "silver"; "bronze" ] in
  let members =
    List.init n_members (fun _ ->
        Value.Obj
          [ ("pid", Value.Num (Prng.int rng 100_000));
            ("tier", Value.Str (Prng.choose rng tiers)) ])
  in
  { texts; bytes = Array.fold_left (fun a t -> a + String.length t + 1) 0 texts; members }

let parse inp text =
  Agg.parse_string_exn
    ~collections:(fun name -> if name = "members" then Some inp.members else None)
    text

(* One run as the CLI does it: prefix sharded, suffix sequential, output
   rendered; per document the lane time of its prefix. *)
let run_once pl texts =
  let streaming, blocking = Agg.split_streaming pl in
  let parent = Span.current () in
  Ctx.timed (fun () ->
      let per_doc =
        Par.Batch.map_pool (Ctx.pool ())
          (fun (i, text) ->
            let t0 = Ctx.now () in
            let out =
              Span.run ~parent ~id:i ~work:1 "jquery.lane" (fun () ->
                  Agg.apply_doc streaming (Agg.doc_of_tree (Jsont.Tree.of_string_exn text)))
            in
            (out, Ctx.now () -. t0))
          texts
      in
      let flat = List.concat_map fst (Array.to_list per_doc) in
      let out =
        Span.run "jquery.suffix" (fun () ->
            List.map (fun d -> Value.to_string (Agg.doc_value d)) (Agg.run_docs blocking flat))
      in
      (per_doc, out))

let reference (ctx : Ctx.t) pl inp =
  let out = List.map Value.to_string (Agg.run pl (Array.to_list (Array.map Jsont.Parser.parse_exn inp.texts))) in
  if ctx.corrupt then (match out with x :: rest -> (x ^ " ") :: rest | [] -> [ "" ]) else out

let describe inp =
  Report.line "# aggregate input: %d documents, %.1f MB, %d-document $lookup collection"
    (Array.length inp.texts) (float_of_int inp.bytes /. 1e6) (List.length inp.members)

(* Repeated runs for [seconds], one timing window each; per document
   its lane time (ms). *)
let phase ?(between = ignore) pl texts expected seconds =
  let rate = Report.rate () and lat = Report.samples () in
  Ctx.for_seconds seconds (fun k ->
      let (per_doc, out), wall = run_once pl texts in
      Report.check (out = expected);
      Report.window rate ~work:(Array.length texts) ~time:wall;
      Array.iter (fun (_, dt) -> Report.push lat (dt *. 1e3)) per_doc;
      between k);
  (rate, Report.to_array lat)

let e2e (ctx : Ctx.t) =
  let inp = generate ctx in
  describe inp;
  let setup = Ctx.setup (fun () -> parse inp pipeline) in
  let pl = Ctx.set_up_before setup ~reps:5 ~wall:0.5 in
  let texts = Array.mapi (fun i t -> (i, t)) inp.texts in
  let expected = reference ctx pl inp in
  ignore (phase pl texts expected 0.3);
  (* a calibration slice after every run, a set-up after every fourth *)
  let between k =
    if k mod 4 = 3 then ignore (Ctx.set_up setup);
    Calib.slice ();
    Ctx.collect k
  in
  let rate, lat = phase ~between pl texts expected ctx.seconds in
  let dps = Report.per_s rate and p50 = Report.median lat in
  let setup_s, reps = Ctx.setup_s setup in
  Report.metric "setup_s" "s" setup_s ~n:reps ~note:"(median pipeline parse incl. $lookup hash build)";
  Report.rate_metric "docs_per_s" "docs/s" rate;
  Report.metric "doc_prefix_p50_ms" "ms" p50 ~n:(Array.length lat);
  Calib.emit ~setup_s ~throughput:dps ~p50

(* ---- traced run ---------------------------------------------------- *)

let layers (ctx : Ctx.t) ~primary =
  let inp = generate ctx in
  describe inp;
  let pl = parse inp pipeline in
  let texts = Array.mapi (fun i t -> (i, t)) inp.texts in
  let expected = reference ctx pl inp in
  ignore (phase pl texts expected 0.3);
  let untraced, _ = phase ~between:Ctx.collect pl texts expected primary in
  Trace.enable true;
  let c name = Obs.Metrics.counter_value name in
  let pass0 = c "mongo.agg.match.pass" and drop0 = c "mongo.agg.match.drop" in
  let probes0 = c "mongo.agg.lookup.probes" and hits0 = c "mongo.agg.lookup.hits" in
  let traced, _ = phase ~between:Ctx.collect pl texts expected primary in
  Trace.overhead "aggregate" ~untraced:(Report.per_s untraced) ~traced:(Report.per_s traced);
  let pass = c "mongo.agg.match.pass" - pass0 and drop = c "mongo.agg.match.drop" - drop0 in
  Trace.layer "jquery.match_pass_frac" "ratio" (float_of_int pass /. float_of_int (max 1 (pass + drop)));
  Trace.layer "jquery.lookup_hit_frac" "ratio"
    (float_of_int (c "mongo.agg.lookup.hits" - hits0)
    /. float_of_int (max 1 (c "mongo.agg.lookup.probes" - probes0)));
  for _ = 1 to 21 do
    ignore (Span.run "jquery.parse" (fun () -> parse inp pipeline))
  done;
  (* prefixes on prebuilt trees (built outside the spans, fresh per
     prefix so no tree-cached index carries over) *)
  let prefix name pl =
    let streaming, _ = Agg.split_streaming pl in
    let trees = Array.map Jsont.Tree.of_string_exn inp.texts in
    Array.iteri
      (fun i t ->
        ignore (Span.run ~id:i ~work:1 name (fun () -> Agg.apply_doc streaming (Agg.doc_of_tree t))))
      trees
  in
  prefix "jquery.prefix" pl;
  prefix "jlogic.match" (parse inp match_only);
  let spans = Span.all () in
  Trace.layer "jquery.parse_ms" "ms" (Report.median (Span.durations_ms "jquery.parse" spans));
  Trace.layer "jquery.prefix_ns_per_doc" "ns/doc" (Span.ns_per_work "jquery.prefix" spans);
  Trace.layer "jquery.suffix_ms" "ms" (Report.median (Span.durations_ms "jquery.suffix" spans));
  Trace.layer "jlogic.match_ns_per_doc" "ns/doc" (Span.ns_per_work "jlogic.match" spans);
  Trace.enable false
