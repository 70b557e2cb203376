(* Tests for the MongoDB aggregation pipeline engine: per-stage
   semantics, the streaming/blocking split, and the differential
   pinning the direct engine against the pure-JNL route. *)

module Value = Jsont.Value
module Agg = Jquery.Mongo_agg

let parse_doc = Jsont.Parser.parse_exn

let docs texts = List.map parse_doc texts

let run_strings ?collections ptext dtexts =
  let pl = Agg.parse_string_exn ?collections ptext in
  List.map Value.to_string (Agg.run pl (docs dtexts))

let check_run label expected ?collections ptext dtexts =
  Alcotest.(check (list string)) label expected (run_strings ?collections ptext dtexts)

(* the orders collection of the CLI examples *)
let orders =
  [ {|{"order_id":1,"status":"shipped","total":30,"lines":[{"sku":"a","qty":2},{"sku":"b","qty":1}]}|};
    {|{"order_id":2,"status":"pending","total":10,"lines":[{"sku":"a","qty":5}]}|};
    {|{"order_id":3,"status":"shipped","total":20,"lines":[]}|};
    {|{"order_id":4,"status":"shipped","total":25}|} ]

let test_match () =
  check_run "match filters" [ {|{"order_id":2,"status":"pending","total":10,"lines":[{"sku":"a","qty":5}]}|} ]
    {|[{"$match": {"status": "pending"}}]|} orders;
  check_run "match keeps order"
    [ {|{"order_id":1}|}; {|{"order_id":3}|}; {|{"order_id":4}|} ]
    {|[{"$match": {"status": "shipped"}}, {"$project": {"order_id": 1}}]|} orders

let test_project () =
  check_run "include" [ {|{"a":{"b":1}}|} ]
    {|[{"$project": {"a.b": 1}}]|} [ {|{"a":{"b":1,"c":2},"d":3}|} ];
  check_run "exclude" [ {|{"a":{"c":2},"d":3}|} ]
    {|[{"$project": {"a.b": 0}}]|} [ {|{"a":{"b":1,"c":2},"d":3}|} ];
  check_run "computed path" [ {|{"city":"Santiago"}|} ]
    {|[{"$project": {"city": "$address.city"}}]|}
    [ {|{"name":"Sue","address":{"city":"Santiago"}}|} ];
  check_run "computed literal and document" [ {|{"k":7,"pair":{"n":"Sue","tag":"x"}}|} ]
    {|[{"$project": {"k": {"$literal": 7}, "pair": {"n": "$name", "tag": {"$literal": "x"}}}}]|}
    [ {|{"name":"Sue"}|} ];
  check_run "computed missing field omitted" [ {|{"keep":1}|} ]
    {|[{"$project": {"keep": 1, "gone": "$nope"}}]|} [ {|{"keep":1}|} ];
  check_run "path through array collects" [ {|{"qtys":[2,1]}|} ]
    {|[{"$project": {"qtys": "$lines.qty"}}]|}
    [ {|{"lines":[{"sku":"a","qty":2},{"sku":"b","qty":1}]}|} ];
  (match Agg.parse_string {|[{"$project": {"a": 1, "b": 0}}]|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed projection must be rejected");
  match Agg.parse_string {|[{"$project": {}}]|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty $project must be rejected"

let test_unwind () =
  check_run "unwind" [ {|{"a":1}|}; {|{"a":2}|} ]
    {|[{"$unwind": "$a"}]|} [ {|{"a":[1,2]}|} ];
  check_run "unwind drops empty and missing" []
    {|[{"$unwind": "$a"}]|} [ {|{"a":[]}|}; {|{"b":1}|} ];
  check_run "unwind preserve" [ {|{"b":1}|}; {|{"b":2}|} ]
    {|[{"$unwind": {"path": "$a", "preserveNullAndEmptyArrays": true}}]|}
    [ {|{"a":[],"b":1}|}; {|{"b":2}|} ];
  check_run "unwind non-array passes through" [ {|{"a":5}|} ]
    {|[{"$unwind": "$a"}]|} [ {|{"a":5}|} ];
  check_run "unwind nested path" [ {|{"a":{"b":1},"c":9}|}; {|{"a":{"b":2},"c":9}|} ]
    {|[{"$unwind": "$a.b"}]|} [ {|{"a":{"b":[1,2]},"c":9}|} ]

let test_group () =
  check_run "group sum/count"
    [ {|{"_id":"shipped","total":75,"n":3}|}; {|{"_id":"pending","total":10,"n":1}|} ]
    {|[{"$group": {"_id": "$status", "total": {"$sum": "$total"}, "n": {"$count": {}}}}]|}
    orders;
  check_run "group min/max/avg"
    [ {|{"_id":"shipped","lo":20,"hi":30,"mean":25}|} ]
    {|[{"$match": {"status": "shipped"}},
       {"$group": {"_id": "$status", "lo": {"$min": "$total"}, "hi": {"$max": "$total"}, "mean": {"$avg": "$total"}}}]|}
    orders;
  check_run "group push"
    [ {|{"_id":0,"ids":[1,2,3,4]}|} ]
    {|[{"$group": {"_id": {"$literal": 0}, "ids": {"$push": "$order_id"}}}]|}
    orders;
  (* $sum ignores non-numeric values; $avg with none is omitted *)
  check_run "sum skips non-numeric"
    [ {|{"_id":0,"s":3}|} ]
    {|[{"$group": {"_id": {"$literal": 0}, "s": {"$sum": "$x"}}}]|}
    [ {|{"x":1}|}; {|{"x":"two"}|}; {|{"x":2}|} ];
  check_run "avg of nothing omitted"
    [ {|{"_id":0}|} ]
    {|[{"$group": {"_id": {"$literal": 0}, "m": {"$avg": "$nope"}}}]|}
    [ {|{"x":1}|} ];
  (* missing _id expression: the output group omits _id *)
  check_run "missing _id omitted"
    [ {|{"n":2}|} ]
    {|[{"$group": {"_id": "$nope", "n": {"$count": {}}}}]|}
    [ {|{"x":1}|}; {|{"y":2}|} ];
  (* compound _id documents group by the combination *)
  check_run "compound _id"
    [ {|{"_id":{"s":"shipped","t":30},"n":1}|};
      {|{"_id":{"s":"pending","t":10},"n":1}|};
      {|{"_id":{"s":"shipped","t":20},"n":1}|};
      {|{"_id":{"s":"shipped","t":25},"n":1}|} ]
    {|[{"$group": {"_id": {"s": "$status", "t": "$total"}, "n": {"$count": {}}}}]|}
    orders

let test_sort_limit_skip () =
  check_run "sort ascending"
    [ {|{"order_id":2}|}; {|{"order_id":3}|}; {|{"order_id":4}|}; {|{"order_id":1}|} ]
    {|[{"$sort": {"total": 1}}, {"$project": {"order_id": 1}}]|} orders;
  check_run "sort descending, limit"
    [ {|{"order_id":1}|}; {|{"order_id":4}|} ]
    {|[{"$sort": {"total": 0}}, {"$limit": 2}, {"$project": {"order_id": 1}}]|} orders;
  check_run "skip" [ {|{"order_id":4}|}; {|{"order_id":1}|} ]
    {|[{"$sort": {"total": 1}}, {"$skip": 2}, {"$project": {"order_id": 1}}]|} orders;
  (* missing keys sort first ascending; ties stay stable *)
  check_run "missing first"
    [ {|{"b":1}|}; {|{"a":1,"b":2}|}; {|{"a":1,"b":3}|}; {|{"a":2}|} ]
    {|[{"$sort": {"a": 1}}]|}
    [ {|{"a":1,"b":2}|}; {|{"a":2}|}; {|{"b":1}|}; {|{"a":1,"b":3}|} ]

let test_lookup () =
  let skus =
    Some (docs [ {|{"sku":"a","desc":"apple"}|}; {|{"sku":"b","desc":"pear"}|} ])
  in
  let collections = function "skus" -> skus | _ -> None in
  check_run "lookup joins" ~collections
    [ {|{"sku":"a","info":[{"sku":"a","desc":"apple"}]}|};
      {|{"sku":"c","info":[]}|} ]
    {|[{"$lookup": {"from": "skus", "localField": "sku", "foreignField": "sku", "as": "info"}}]|}
    [ {|{"sku":"a"}|}; {|{"sku":"c"}|} ];
  (* an array local field matches per element *)
  check_run "lookup array local" ~collections
    [ {|{"sku":["b","a"],"info":[{"sku":"a","desc":"apple"},{"sku":"b","desc":"pear"}]}|} ]
    {|[{"$lookup": {"from": "skus", "localField": "sku", "foreignField": "sku", "as": "info"}}]|}
    [ {|{"sku":["b","a"]}|} ];
  (* a missing local field matches foreign docs missing the field *)
  let collections = function
    | "mixed" -> Some (docs [ {|{"k":1}|}; {|{"x":9}|} ])
    | _ -> None
  in
  check_run "lookup missing matches missing" ~collections
    [ {|{"info":[{"x":9}]}|} ]
    {|[{"$lookup": {"from": "mixed", "localField": "k", "foreignField": "k", "as": "info"}}]|}
    [ {|{}|} ];
  match
    Agg.parse_string
      {|[{"$lookup": {"from": "nope", "localField": "a", "foreignField": "b", "as": "c"}}]|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown collection must be rejected"

(* Join and group keys compare by value: keys differing only in object
   key order meet, while 0, "", [], {} and a missing field stay apart. *)
let test_keys_by_value () =
  let keyed =
    [ {|{"k":{"a":1,"b":[1,{"x":1,"y":2}]},"n":0}|}; {|{"k":0,"n":1}|};
      {|{"k":"","n":2}|}; {|{"k":[],"n":3}|}; {|{"k":{},"n":4}|}; {|{"n":5}|};
      {|{"k":{"b":[1,{"y":2,"x":1}],"a":1},"n":6}|} ]
  in
  let collections = function "c" -> Some (docs keyed) | _ -> None in
  let matches ns = String.concat "," (List.map (List.nth keyed) ns) in
  check_run "lookup by value" ~collections
    [ Printf.sprintf {|{"k":{"b":[1,{"x":1,"y":2}],"a":1},"m":[%s]}|} (matches [ 0; 6 ]);
      Printf.sprintf {|{"k":0,"m":[%s]}|} (matches [ 1 ]);
      Printf.sprintf {|{"k":"","m":[%s]}|} (matches [ 2 ]);
      Printf.sprintf {|{"k":[],"m":[%s]}|} (matches [ 3 ]);
      Printf.sprintf {|{"k":{},"m":[%s]}|} (matches [ 4 ]);
      Printf.sprintf {|{"m":[%s]}|} (matches [ 5 ]) ]
    {|[{"$lookup": {"from": "c", "localField": "k", "foreignField": "k", "as": "m"}}]|}
    [ {|{"k":{"b":[1,{"x":1,"y":2}],"a":1}}|}; {|{"k":0}|}; {|{"k":""}|};
      {|{"k":[]}|}; {|{"k":{}}|}; {|{}|} ];
  (* an array probes itself and each element; a foreign document found
     twice is joined once, in collection order *)
  let arrays = [ {|{"k":[0],"n":0}|}; {|{"k":0,"n":1}|}; {|{"k":[0,[0]],"n":2}|} ] in
  let collections = function "c" -> Some (docs arrays) | _ -> None in
  let matches ns = String.concat "," (List.map (List.nth arrays) ns) in
  check_run "array probes deduplicated" ~collections
    [ Printf.sprintf {|{"k":[0,[0],0],"m":[%s]}|} (matches [ 0; 1 ]);
      Printf.sprintf {|{"k":[0,[0]],"m":[%s]}|} (matches [ 0; 1; 2 ]) ]
    {|[{"$lookup": {"from": "c", "localField": "k", "foreignField": "k", "as": "m"}}]|}
    [ {|{"k":[0,[0],0]}|}; {|{"k":[0,[0]]}|} ];
  (* groups in first-seen order, each under its first key *)
  check_run "group by value"
    [ {|{"_id":{"a":1,"b":[{"x":1,"y":2}]},"s":3}|}; {|{"_id":0,"s":132}|};
      {|{"_id":"","s":8}|}; {|{"_id":[],"s":16}|}; {|{"_id":{},"s":32}|};
      {|{"s":64}|} ]
    {|[{"$group": {"_id": "$g", "s": {"$sum": "$v"}}}]|}
    [ {|{"g":{"a":1,"b":[{"x":1,"y":2}]},"v":1}|};
      {|{"g":{"b":[{"y":2,"x":1}],"a":1},"v":2}|}; {|{"g":0,"v":4}|};
      {|{"g":"","v":8}|}; {|{"g":[],"v":16}|}; {|{"g":{},"v":32}|};
      {|{"v":64}|}; {|{"g":0,"v":128}|} ]

(* Building the join table is a few words per member: the key is the
   member's own value, not a re-serialized copy. *)
let test_lookup_words () =
  let n = 20_000 in
  let members =
    List.init n (fun i ->
        Value.Obj
          [ ("pid", Value.Num (i * 7919 mod 100_000));
            ("tier", Value.Str (List.nth [ "gold"; "silver"; "bronze" ] (i mod 3))) ])
  in
  let collections = function "members" -> Some members | _ -> None in
  let pipeline =
    parse_doc
      {|[{"$lookup": {"from": "members", "localField": "id", "foreignField": "pid", "as": "member"}}]|}
  in
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let pl = Agg.parse ~collections pipeline in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  Alcotest.(check bool) "pipeline parses" true (Result.is_ok pl);
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  let per_member = words /. float_of_int n in
  if per_member > 40. then
    Alcotest.failf "parsing a %d-member $lookup allocated %.1f words/member (budget 40)"
      n per_member

let test_parse_errors () =
  List.iter
    (fun s ->
      match Agg.parse_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected pipeline error on %s" s)
    [ {|{"$match": {}}|};  (* not an array *)
      {|[{"$frobnicate": {}}]|};
      {|[{"$match": {"a": {"$frobnicate": 1}}}]|};
      {|[{"$match": {}, "$limit": 1}]|};
      {|[{"$sort": {"a": 5}}]|};
      {|[{"$sort": {}}]|};
      {|[{"$group": {"n": {"$sum": "$a"}}}]|};  (* no _id *)
      {|[{"$group": {"_id": "$a", "n": {"$median": "$a"}}}]|};
      {|[{"$unwind": "a"}]|};  (* path must start with $ *)
      {|[{"$unwind": {"path": "$a", "bogus": 1}}]|};
      {|[{"$project": {"x": {"$concat": ["$a", "$b"]}}}]|} ]

(* ---- streaming split and Par.Batch sharding ------------------------------- *)

(* the streaming prefix over [jobs] lanes, each document ingested from
   its text by [ingest], then the blocking suffix in input order *)
let shard_run ~jobs ~ingest pl texts =
  let streaming, blocking = Agg.split_streaming pl in
  let prefixed =
    Par.Batch.map ~jobs (fun text -> Agg.apply_doc streaming (ingest text)) texts
  in
  let flat = List.concat (Array.to_list prefixed) in
  List.map Agg.doc_value (Agg.run_docs blocking flat)

let test_sharding () =
  let rng = Jworkload.Prng.create 11 in
  let vs = List.init 60 (fun _ -> Jworkload.Gen_json.api_record rng 3) in
  let pl =
    Agg.parse_string_exn
      {|[{"$match": {"age": {"$gte": 30}}},
         {"$unwind": "$orders"},
         {"$project": {"status": "$orders.status", "total": "$orders.total"}},
         {"$group": {"_id": "$status", "sum": {"$sum": "$total"}, "n": {"$count": {}}}},
         {"$sort": {"sum": 0}}]|}
  in
  let seq = List.map Value.to_string (Agg.run pl vs) in
  Alcotest.(check bool) "pipeline produces groups" true (List.length seq > 0);
  let texts = Array.of_list (List.map Value.to_string vs) in
  (* output and the lane-merged counter totals do not depend on the
     lane count or on how a document is ingested *)
  let counters = [ "mongo.agg.match.pass"; "mongo.agg.unwind.out" ] in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let totals = ref None in
  List.iter
    (fun (route, ingest) ->
      List.iter
        (fun jobs ->
          let what = Printf.sprintf "%s, jobs=%d" route jobs in
          Obs.Metrics.reset ();
          Alcotest.(check (list string))
            (what ^ " agrees with sequential")
            seq
            (List.map Value.to_string (shard_run ~jobs ~ingest pl texts));
          let got = List.map Obs.Metrics.counter_value counters in
          match !totals with
          | None ->
            Alcotest.(check bool) "counters recorded" true
              (List.for_all (fun c -> c > 0) got);
            totals := Some got
          | Some want ->
            Alcotest.(check (list int)) (what ^ " counter totals") want got)
        [ 1; 2; 4 ])
    [ ("doc_of_value", fun text -> Agg.doc_of_value (parse_doc text));
      ("doc_of_tree",
        fun text -> Agg.doc_of_tree (Jsont.Tree.of_string_exn text)) ]

(* ---- the pipeline differential -------------------------------------------- *)

(* Navigational pipelines evaluated by the direct engine (JSL plans +
   value rewriting) and the pure-JNL route (Theorem 2 + post-image
   marking sets + Tree.substitute) must agree byte for byte. *)

let nav_pipelines =
  [ {|[{"$match": {"age": {"$exists": true}}}]|};
    {|[{"$match": {"orders.status": "shipped"}}]|};
    {|[{"$match": {"name.first": {"$in": ["Sue", "Ana"]}}}]|};
    {|[{"$project": {"name.first": 1, "orders.total": 1}}]|};
    {|[{"$project": {"orders.lines.qty": 1}}]|};
    {|[{"$project": {"name.last": 0, "orders.lines": 0}}]|};
    {|[{"$unwind": "$hobbies"}]|};
    {|[{"$unwind": {"path": "$orders", "preserveNullAndEmptyArrays": true}}]|};
    {|[{"$match": {"hobbies": {"$exists": true}}},
       {"$unwind": "$hobbies"},
       {"$project": {"name.first": 1, "hobbies": 1}}]|};
    {|[{"$unwind": "$orders"},
       {"$match": {"orders.status": "shipped"}},
       {"$project": {"orders.lines.sku": 1, "id": 1}}]|};
    {|[{"$project": {"k3": 0}}, {"$unwind": "$k1"}]|} ]

let mixed_corpus seed n =
  let rng = Jworkload.Prng.create seed in
  List.init n (fun i ->
      if i mod 2 = 0 then Jworkload.Gen_json.api_record rng 3
      else
        (* sized documents can have non-object roots; wrap to keep the
           collection document-shaped like a Mongo collection *)
        match Jworkload.Gen_json.sized rng 40 with
        | Value.Obj _ as v -> v
        | v -> Value.Obj [ ("k1", v) ])

let test_differential () =
  let vs = mixed_corpus 42 80 in
  List.iter
    (fun ptext ->
      let pl = Agg.parse_string_exn ptext in
      Alcotest.(check bool)
        (Printf.sprintf "navigational: %s" ptext)
        true (Agg.navigational pl);
      let direct = List.map Value.to_string (Agg.run pl vs) in
      match Agg.run_via_jnl pl vs with
      | Error m -> Alcotest.failf "JNL route failed on %s: %s" ptext m
      | Ok jnl ->
        Alcotest.(check (list string))
          (Printf.sprintf "JNL route agrees: %s" ptext)
          direct
          (List.map Value.to_string jnl))
    nav_pipelines

(* random navigational pipelines over the key pool *)
let test_differential_random () =
  let rng = Jworkload.Prng.create 7 in
  let keys = Jworkload.Gen_json.default_profile.Jworkload.Gen_json.key_pool in
  let rand_path () =
    let len = 1 + Jworkload.Prng.int rng 2 in
    String.concat "." (List.init len (fun _ -> Jworkload.Prng.choose rng keys))
  in
  let rand_stage () =
    match Jworkload.Prng.int rng 4 with
    | 0 -> Printf.sprintf {|{"$match": {"%s": {"$exists": true}}}|} (rand_path ())
    | 1 -> Printf.sprintf {|{"$project": {"%s": 1, "%s": 1}}|} (rand_path ()) (rand_path ())
    | 2 -> Printf.sprintf {|{"$project": {"%s": 0}}|} (rand_path ())
    | _ ->
      Printf.sprintf {|{"$unwind": {"path": "$%s", "preserveNullAndEmptyArrays": %s}}|}
        (rand_path ())
        (if Jworkload.Prng.bool rng then "true" else "false")
  in
  let vs = mixed_corpus 1234 40 in
  for trial = 1 to 40 do
    let n_stages = 1 + Jworkload.Prng.int rng 3 in
    let ptext =
      "[" ^ String.concat ", " (List.init n_stages (fun _ -> rand_stage ())) ^ "]"
    in
    let pl = Agg.parse_string_exn ptext in
    let direct = List.map Value.to_string (Agg.run pl vs) in
    match Agg.run_via_jnl pl vs with
    | Error m -> Alcotest.failf "JNL route failed (trial %d) on %s: %s" trial ptext m
    | Ok jnl ->
      Alcotest.(check (list string))
        (Printf.sprintf "trial %d: %s" trial ptext)
        direct
        (List.map Value.to_string jnl)
  done

(* Tree.substitute, the accessor the JNL unwind rebuild rests on *)
let test_substitute () =
  let v = parse_doc {|{"a":{"b":[1,2]},"c":"x"}|} in
  let t = Jsont.Tree.of_value v in
  (* replace the node at a.b *)
  let all = List.of_seq (Jsont.Tree.nodes t) in
  let target =
    List.find
      (fun n -> Jsont.Tree.equal_to_value t n (parse_doc "[1,2]"))
      all
  in
  Alcotest.(check string) "substitute a.b"
    {|{"a":{"b":9},"c":"x"}|}
    (Value.to_string (Jsont.Tree.substitute t target (Value.Num 9)));
  Alcotest.(check string) "substitute root"
    {|{"z":0}|}
    (Value.to_string (Jsont.Tree.substitute t Jsont.Tree.root (parse_doc {|{"z":0}|})));
  Alcotest.(check bool) "bad node rejected" true
    (match Jsont.Tree.substitute t 9999 (Value.Num 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "agg"
    [ ("stages",
       [ Alcotest.test_case "$match" `Quick test_match;
         Alcotest.test_case "$project" `Quick test_project;
         Alcotest.test_case "$unwind" `Quick test_unwind;
         Alcotest.test_case "$group" `Quick test_group;
         Alcotest.test_case "$sort/$limit/$skip" `Quick test_sort_limit_skip;
         Alcotest.test_case "$lookup" `Quick test_lookup;
         Alcotest.test_case "keys by value" `Quick test_keys_by_value;
         Alcotest.test_case "$lookup words" `Quick test_lookup_words;
         Alcotest.test_case "parse errors" `Quick test_parse_errors ]);
      ("engine",
       [ Alcotest.test_case "sharded = sequential" `Quick test_sharding;
         Alcotest.test_case "Tree.substitute" `Quick test_substitute ]);
      ("differential",
       [ Alcotest.test_case "fixed pipelines" `Quick test_differential;
         Alcotest.test_case "random pipelines" `Quick test_differential_random ]) ]
