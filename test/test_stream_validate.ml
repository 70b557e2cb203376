(* Tests for Validate.Plan.run_stream: streaming schema validation over
   the token stream.  The decided relation must be exactly
   run_tree ∘ Tree.of_string (hence also the interpreted
   Validate.validates), with byte-identical rendered errors on
   malformed documents and matching budget-exhaustion outcomes. *)

module Value = Jsont.Value
module Parser = Jsont.Parser
module Printer = Jsont.Printer
module Tree = Jsont.Tree
module Plan = Jschema.Validate.Plan

let plan_of text = Plan.compile (Jschema.Parse.of_string_exn text)

let render e = Format.asprintf "%a" Parser.pp_error e

(* the stream engine's verdict, or its rendered error *)
let via_stream plan text =
  match Parser.wrap (fun () -> Plan.run_stream plan text) with
  | Ok ok -> Ok ok
  | Error e -> Error (render e)

(* every route of [plan] prints one cell on each text *)
let agree plan texts =
  Oracle.Validate.agree ~what:"plan routes" (Oracle.Validate.plan_routes plan) texts

(* ------------------------------------------------------------------ *)
(* Table 1 keyword cases: every keyword, both verdicts                 *)
(* ------------------------------------------------------------------ *)

let test_keyword_cases () =
  List.iter
    (fun (keyword, schema_text, cases) ->
      Oracle.Validate.check ~what:keyword
        (Oracle.Validate.routes (Oracle.Validate.Schema (Jschema.Parse.of_string_exn schema_text)))
        cases)
    Jworkload.Catalog.keyword_cases

(* ------------------------------------------------------------------ *)
(* Fuzz: every validate route of the oracle agrees                      *)
(* ------------------------------------------------------------------ *)

let test_fuzz_catalog () =
  (* unfed: the feeds run on the keyword cases and at every split
     point *)
  let routes =
    Oracle.Validate.routes ~feeds:[]
      (Oracle.Validate.Schema (Jschema.Parse.of_string_exn Jworkload.Catalog.catalog_schema))
  in
  let rng = Jworkload.Prng.create 4242 in
  for i = 1 to 500 do
    let text = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
    Oracle.Validate.agree ~what:(Printf.sprintf "case %d" i) routes [ text ]
  done

let test_fuzz_generated () =
  (* random documents against random schema/formula-derived schemas:
     exercises shapes the catalog generator never produces *)
  let rng = Jworkload.Prng.create 777 in
  let cfg =
    { Jworkload.Gen_formula.default with
      Jworkload.Gen_formula.size = 8;
      allow_nondet = true }
  in
  let checked = ref 0 in
  for i = 1 to 500 do
    let jsl = Jworkload.Gen_formula.jsl rng cfg in
    let schema =
      { Jschema.Schema.definitions = []; root = Jschema.Of_jsl.schema jsl }
    in
    match Jschema.Schema.well_formed schema with
    | Error _ -> ()
    | Ok () ->
      let routes = Oracle.Validate.routes ~feeds:[] (Oracle.Validate.Schema schema) in
      let doc = Jworkload.Gen_json.sized rng (1 + Jworkload.Prng.int rng 80) in
      incr checked;
      Oracle.Validate.agree ~what:(Printf.sprintf "case %d" i) routes
        [ Value.to_string doc ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough well-formed schemas (%d/500)" !checked)
    true (!checked > 400)

let test_shared_plan_domains () =
  (* the closure cache lives on the plan: two domains filling it at
     once from a fresh plan must both reach the tree verdicts *)
  let plan = plan_of Jworkload.Catalog.catalog_schema in
  let rng = Jworkload.Prng.create 2024 in
  let texts =
    Array.init 200 (fun _ -> Value.to_string (Jworkload.Catalog.catalog_doc rng))
  in
  let expected =
    Array.map (fun text -> Plan.run_tree plan (Tree.of_string_exn text)) texts
  in
  let worker () = Array.map (Plan.run_stream plan) texts in
  let domains = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iteri
    (fun k d ->
      if Domain.join d <> expected then
        Alcotest.failf "domain %d: stream verdicts differ from the tree's" k)
    domains

(* ------------------------------------------------------------------ *)
(* Malformed documents: rendered errors byte-identical to the tree path *)
(* ------------------------------------------------------------------ *)

let test_error_identity () =
  let plan = plan_of Jworkload.Catalog.catalog_schema in
  let cases =
    [ {|{"a":1,}|}; {|[1,2|}; {|{"a" 1}|}; "nul"; {|{"a":1,"a":2}|};
      {|[1, -3]|}; {|"unterminated|}; {|{"a":tru}|}; {|[1,2]]|};
      {|{"\ud800x":1}|}; ""; "}"; "true"; "null"; "-3"; "1.5"; {|{"k":}|};
      {|[,]|}; {|{"a":1 "b":2}|}; {|{1:2}|}; {|{"id": 1e30}|};
      {|{"deep":{"deeper":{"x":[1,{"y":tru}]}}}|} ]
  in
  agree plan cases;
  (* duplicate keys against the run's one key set: past its growth, an
     enclosing object's key reused inside (not a duplicate), a nested
     object closing before the duplicate, in streamed and in skipped
     members *)
  let members prefix n =
    String.concat "," (List.init n (fun i -> Printf.sprintf {|"%s%d":%d|} prefix i i))
  in
  let dup_cases =
    [ Printf.sprintf "{%s,\"k7\":1}" (members "k" 40);
      {|{"a":{"a":{"a":1}},"b":{"a":1},"c":[{"a":1},{"a":1}]}|};
      Printf.sprintf "{%s,\"n\":{%s},\"o3\":1}" (members "o" 20) (members "i" 40);
      Printf.sprintf "{%s,\"n\":{%s,\"i3\":1}}" (members "o" 20) (members "i" 40);
      {|{"x":1,"n":{"x":1,"y":2,"y":3}}|} ]
  in
  List.iter
    (fun plan -> agree plan dup_cases)
    [ plan; plan_of {|{"properties":{"a":{"type":"object"}}}|} ];
  (* and with a mutation sweep over a well-formed document: truncations
     and byte injections at every offset *)
  let rng = Jworkload.Prng.create 99 in
  let base = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
  let base = String.sub base 0 (min 400 (String.length base)) in
  agree plan (List.init (String.length base) (String.sub base 0));
  String.iteri
    (fun i _ ->
      if i mod 7 = 0 then begin
        let b = Bytes.of_string base in
        Bytes.set b i '}';
        agree plan [ Bytes.to_string b ]
      end)
    base

(* ------------------------------------------------------------------ *)
(* Budget behavior                                                     *)
(* ------------------------------------------------------------------ *)

let test_depth_budget_identity () =
  (* the depth ceiling follows document nesting with parser-identical
     positions: the rendered exhaustion error matches the tree path *)
  let plan = plan_of {|{"type":"array"}|} in
  let deep =
    let b = Buffer.create 512 in
    for _ = 1 to 100 do Buffer.add_char b '[' done;
    Buffer.add_char b '1';
    for _ = 1 to 100 do Buffer.add_char b ']' done;
    Buffer.contents b
  in
  let stream =
    match
      Parser.wrap (fun () ->
          Plan.run_stream ~budget:(Obs.Budget.depth_limited 50) plan deep)
    with
    | Ok ok -> Alcotest.failf "depth 50 must exhaust, got %b" ok
    | Error e -> render e
  in
  let tree =
    match Tree.of_string ~budget:(Obs.Budget.depth_limited 50) deep with
    | Ok _ -> Alcotest.fail "depth 50 must exhaust the tree builder"
    | Error e -> render e
  in
  Alcotest.(check string) "depth exhaustion error identity" tree stream;
  (* a generous ceiling admits the document on both paths *)
  match
    Parser.wrap (fun () ->
        Plan.run_stream ~budget:(Obs.Budget.depth_limited 500) plan deep)
  with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "deep array must validate"
  | Error e -> Alcotest.failf "generous ceiling failed: %s" (render e)

let test_fuel_budget () =
  (* run_stream fuses parse and validation fuel into one budget; the
     contract is coarser than byte identity: ample fuel completes with
     the tree verdict, starvation raises a budget error, never a wrong
     verdict *)
  let plan = plan_of Jworkload.Catalog.catalog_schema in
  let rng = Jworkload.Prng.create 5 in
  let text = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
  let expected = Plan.run_tree plan (Tree.of_string_exn text) in
  (match
     Parser.wrap (fun () ->
         Plan.run_stream ~budget:(Obs.Budget.create ~fuel:1_000_000 ()) plan
           text)
   with
  | Ok got -> Alcotest.(check bool) "ample fuel completes" expected got
  | Error e -> Alcotest.failf "ample fuel exhausted: %s" (render e));
  match
    Parser.wrap (fun () ->
        Plan.run_stream ~budget:(Obs.Budget.create ~fuel:5 ()) plan text)
  with
  | Ok _ -> Alcotest.fail "5 fuel must not cover a catalog document"
  | Error e ->
    let m = render e in
    Alcotest.(check bool) ("mentions fuel: " ^ m) true
      (try
         ignore (String.index m 'f');
         (* "fuel" appears in the budget description *)
         let rec has i =
           i + 4 <= String.length m && (String.sub m i 4 = "fuel" || has (i + 1))
         in
         has 0
       with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Spill paths: uniqueItems, container enums, $ref sharing             *)
(* ------------------------------------------------------------------ *)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was)
    f

let test_spill_unique_items () =
  with_metrics (fun () ->
      let plan = plan_of {|{"type":"array","uniqueItems":true}|} in
      (match via_stream plan {|[1,2,[3,{"a":1}],"x"]|} with
      | Ok true -> ()
      | other ->
        Alcotest.failf "distinct items must validate (%s)"
          (match other with Ok b -> string_of_bool b | Error m -> m));
      (match via_stream plan {|[1,2,{"a":[1]},2]|} with
      | Ok false -> ()
      | other ->
        Alcotest.failf "duplicate items must fail (%s)"
          (match other with Ok b -> string_of_bool b | Error m -> m));
      Alcotest.(check bool) "spill counted" true
        (Obs.Metrics.counter_value "validate.stream.spills" > 0))

let test_spill_container_enum () =
  let plan = plan_of {|{"enum":[[1,2],{"k":"v"},7,"s"]}|} in
  List.iter
    (fun (text, expected) ->
      match via_stream plan text with
      | Ok got ->
        Alcotest.(check bool) ("enum " ^ text) expected got;
        agree plan [ text ]
      | Error m -> Alcotest.failf "enum %s: %s" text m)
    [ ("[1,2]", true); ({|{"k":"v"}|}, true); ("7", true); ({|"s"|}, true);
      ("[1,3]", false); ({|{"k":"w"}|}, false); ("8", false); ("[]", false) ]

let test_spill_ref_sharing () =
  let plan = plan_of (Jworkload.Catalog.ref_sharing_schema 12) in
  let text = Value.to_string Jworkload.Catalog.ref_sharing_doc in
  agree plan [ text ]

let test_skip_metrics () =
  with_metrics (fun () ->
      (* an unconstrained subtree is fast-forwarded, and the skipped
         bytes are accounted *)
      let plan =
        plan_of {|{"type":"object","properties":{"a":{"type":"number"}}}|}
      in
      (match
         via_stream plan {|{"a":1,"pad":[[[["deep",{"k":"v"}]]],"tail"]}|}
       with
      | Ok true -> ()
      | other ->
        Alcotest.failf "doc must validate (%s)"
          (match other with Ok b -> string_of_bool b | Error m -> m));
      Alcotest.(check bool) "skipped bytes counted" true
        (Obs.Metrics.counter_value "validate.stream.skipped_bytes" > 0))

(* Words allocated on this domain while [f] runs.  The minor figure
   comes from [Gc.minor_words]: the one in [Gc.counters] misses most
   minor allocation on OCaml 5.1. *)
let words_allocated f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_spill_linear () =
  (* one small uniqueItems spill per element: total allocation must
     follow the document, not (elements x rest of the document) *)
  let plan = plan_of {|{"items":{"properties":{"tags":{"uniqueItems":true}}}}|} in
  let words n =
    let b = Buffer.create (n * 32) in
    Buffer.add_char b '[';
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b {|{"id":%d,"tags":["a","b"]}|} i
    done;
    Buffer.add_char b ']';
    let text = Buffer.contents b in
    let ok, w = words_allocated (fun () -> Plan.run_stream plan text) in
    Alcotest.(check bool) (Printf.sprintf "%d items validate" n) true ok;
    w
  in
  let w1 = words 1000 in
  let w4 = words 4000 in
  if w4 > 6. *. w1 then
    Alcotest.failf "words grew %.1fx from 1000 items (%.0f) to 4000 (%.0f)"
      (w4 /. w1) w1 w4

let test_spill_sized_by_subtree () =
  (* a spill ahead of a large unconstrained value must not size its
     builder from the bytes that follow it *)
  let plan = plan_of {|{"properties":{"u":{"uniqueItems":true}}}|} in
  let text = {|{"u":[1,2],"pad":"|} ^ String.make (256 * 1024) 'x' ^ {|"}|} in
  let ok, w = words_allocated (fun () -> Plan.run_stream plan text) in
  Alcotest.(check bool) "document validates" true ok;
  if w >= 16384. then
    Alcotest.failf "one spill ahead of 256 KiB allocated %.0f words" w

let test_catalog_allocation () =
  (* the stream executor's allocation budget on catalog documents: the
     lexer cursor, one key hash per member, one key set per run (which
     spills share) and spilled trees that build hashes only when an
     [enum] or [uniqueItems] asks keep it under 4.2 words per byte *)
  let plan = plan_of Jworkload.Catalog.catalog_schema in
  let rng = Jworkload.Prng.create 11 in
  let texts =
    Array.init 200 (fun _ ->
        Jsont.Value.to_string (Jworkload.Catalog.catalog_doc rng))
  in
  let bytes = Array.fold_left (fun a s -> a + String.length s) 0 texts in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  let (), w =
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
    words_allocated (fun () ->
        Array.iter
          (fun text ->
            ignore (Plan.run_stream ~budget:(Obs.Budget.create ()) plan text))
          texts)
  in
  let per_byte = w /. float_of_int bytes in
  if per_byte > 4.2 then
    Alcotest.failf "run_stream allocated %.2f words/B (budget 4.2)" per_byte

let test_spill_parse_values () =
  (* a spilled value is one parsed value, counted once *)
  let plan = plan_of {|{"uniqueItems":true}|} in
  let text = "[1,2,[3]]" in
  let values f =
    with_metrics (fun () ->
        ignore (f ());
        Obs.Metrics.counter_value "parse.values")
  in
  Alcotest.(check int) "parse.values: stream = tree"
    (values (fun () -> Tree.of_string_exn text))
    (values (fun () -> Plan.run_stream plan text))

(* ------------------------------------------------------------------ *)
(* NDJSON line independence: a bad line must not poison its neighbours *)
(* ------------------------------------------------------------------ *)

let test_ndjson_fault_folding () =
  let plan = plan_of {|{"type":"object","required":["a"]}|} in
  let lines =
    [ {|{"a":1}|}; {|{"a":1,}|} (* malformed *); {|{"b":2}|} (* invalid *);
      "[1,2" (* truncated *); {|{"a":{"x":[1,2]}}|} ]
  in
  let results =
    List.map
      (fun line ->
        match
          Parser.wrap (fun () ->
              Plan.run_stream ~budget:(Obs.Budget.create ~fuel:10_000 ()) plan
                line)
        with
        | Ok ok -> if ok then "valid" else "INVALID"
        | Error _ -> "error"
      )
      lines
  in
  Alcotest.(check (list string)) "per-line outcomes, later lines unaffected"
    [ "valid"; "error"; "INVALID"; "error"; "valid" ]
    results

(* ------------------------------------------------------------------ *)
(* Chunked feed: run_lexer over a refill lexer = run_stream             *)
(* ------------------------------------------------------------------ *)

(* The work counters one run leaves behind, with its outcome. *)
let work_counters run =
  Obs.Metrics.reset ();
  let outcome = run () in
  ( outcome,
    List.map
      (fun name -> (name, Obs.Metrics.counter_value name))
      [ "parse.values"; "validate.stream.skipped_bytes";
        "validate.stream.spills"; "validate.stream.runs" ] )

let test_feed_keyword_cases () =
  (* The feed does not show in the work counters: under a schema that
     checks members, one that skips them and one that spills
     documents, every document draws the same counts fed in 1- and
     7-byte chunks as in one piece.  (The verdicts of the keyword
     cases fed so are the oracle's, in "Table 1 keyword cases".) *)
  let docs =
    [ {|{"a":3,"note":"ok"}|}; {|{"a":0}|}; {|{"a":1,"broken"|};
      {|{"a":1,"pad":[[["deep",{"k":"v"}]],"tail"]}|} ]
  in
  with_metrics @@ fun () ->
  List.iter
    (fun (schema_text, busy) ->
      let routes =
        Oracle.Validate.stream_routes ~feeds:(List.map Oracle.slices [ 1; 7 ])
          (plan_of schema_text)
      in
      let total = ref 0 in
      List.iter
        (fun text ->
          match List.map (fun r -> (r.Oracle.name, work_counters (fun () -> r.run text))) routes with
          | [] -> ()
          | (_, ((_, counts) as oneshot)) :: fed ->
            total := !total + List.assoc busy counts;
            List.iter
              (fun (name, got) ->
                if got <> oneshot then
                  Alcotest.failf "%s on %s: %s changes the counters" schema_text text name)
              fed)
        docs;
      if !total = 0 then Alcotest.failf "%s: %s never counted" schema_text busy)
    [ ( {|{"type":"object","required":["a"],
           "properties":{"a":{"type":"number","minimum":1}},
           "additionalProperties":{"type":"string"}}|},
        "validate.stream.runs" );
      ( {|{"properties":{"a":{"type":"number"}}}|},
        "validate.stream.skipped_bytes" );
      ( {|{"anyOf":[{"enum":[{"a":0}]},{"required":["a"]}]}|},
        "validate.stream.spills" ) ]

let test_feed_every_split () =
  (* catalog document and malformed cases, split at every byte offset —
     including splits inside spilled subtrees, skipped subtrees, string
     escapes and numbers *)
  let plan = plan_of Jworkload.Catalog.catalog_schema in
  let rng = Jworkload.Prng.create 31 in
  let doc = Value.to_string (Jworkload.Catalog.catalog_doc rng) in
  let doc =
    if String.length doc > 300 then String.sub doc 0 300 else doc
  in
  List.iter
    (fun text ->
      Oracle.Validate.agree ~what:"every split"
        (Oracle.Validate.plan_routes ~cuts:(Oracle.every_cut text) plan)
        [ text ])
    [ doc; {|{"a":tru}|}; {|[1, -3]|}; {|{"id": 1e30}|}; {|{"id": 1e999}|};
      {|{"tags":["a","a"]}|}; "" ]

let test_feed_fuel_identity () =
  (* fuel charges must be identical, not merely order-compatible: the
     stream group agrees at every exact fuel value up to the small
     document's full draw, at tiny depths, and under deadlines that
     fire inside the long array *)
  Oracle.Validate.sweep ~what:"stream group"
    (plan_of {|{"type":"object","properties":{"a":{"type":"array","items":{"type":"integer"}}}}|})
    [ {|{"a":[1,2,3],"skip":{"x":[true,"s"]}}|};
      Printf.sprintf {|{"a":[%s],"skip":{"x":[true,"s"]}}|}
        (String.concat "," (List.init 3000 string_of_int)) ]

(* ------------------------------------------------------------------ *)
(* Multi-id dispatch: members/elements owing two or more plan ids       *)
(* ------------------------------------------------------------------ *)

(* Each schema makes some member or element dispatch to two or more
   distinct plan ids at once, which the catalog never does; most also
   give values same-node closures of two or more nodes. *)
let multi_id_schemas =
  [ (* "ab"/"b" are named by properties and matched by patternProperties *)
    {|{"properties":{"ab":{"type":"number","minimum":3},"b":{"type":"string"}},
       "patternProperties":{"a(b|c)":{"maximum":10},"b":{"pattern":"x*"}},
       "additionalProperties":{"type":"array"}}|};
    (* allOf of two objects with different additionalProperties *)
    {|{"allOf":[{"properties":{"a":{"type":"number"}},
                 "additionalProperties":{"type":"string"}},
                {"properties":{"b":{"type":"string"}},
                 "additionalProperties":{"minimum":2}}]}|};
    (* anyOf / not over objects *)
    {|{"anyOf":[{"properties":{"a":{"type":"string"}},"required":["a"]},
                {"not":{"properties":{"a":{"minimum":5}},
                        "additionalProperties":{"type":"object"}}}]}|};
    (* tuple items + additionalItems under allOf *)
    {|{"allOf":[{"items":[{"type":"number"},{"type":"string"}],
                 "additionalItems":{"type":"number"}},
                {"items":[{"minimum":1}],"additionalItems":{"maximum":5}},
                {"type":"array"}]}|};
    (* $ref to a uniqueItems array, alone and inside multi-id unions *)
    {|{"definitions":{"u":{"type":"array","uniqueItems":true}},
       "properties":{"a":{"$ref":"#/definitions/u"},
                     "b":{"allOf":[{"$ref":"#/definitions/u"},
                                   {"items":[{"type":"number"}]}]}},
       "patternProperties":{"a|b":{"type":"array"}},
       "items":[{"$ref":"#/definitions/u"}],
       "additionalItems":{"anyOf":[{"$ref":"#/definitions/u"},{"type":"number"}]}}|} ]

let rec small_value rng depth =
  let module P = Jworkload.Prng in
  match P.int rng (if depth >= 3 then 2 else 4) with
  | 0 -> Value.Num (P.int rng 12)
  | 1 -> Value.Str (P.choose rng [ ""; "x"; "xx"; "y" ])
  | 2 -> Value.Arr (List.init (P.int rng 5) (fun _ -> small_value rng (depth + 1)))
  | _ ->
    let keys = P.shuffle rng [ "a"; "b"; "ab"; "ac"; "c" ] in
    let width = P.int rng 5 in
    Value.Obj
      (List.filteri (fun i _ -> i < width) keys
      |> List.map (fun k -> (k, small_value rng (depth + 1))))

let test_multi_id_dispatch () =
  let rng = Jworkload.Prng.create 1313 in
  List.iter
    (fun schema_text ->
      let schema = Jschema.Parse.of_string_exn schema_text in
      let plan = Plan.compile schema in
      let verdicts = ref [] in
      for i = 1 to 300 do
        (* containers at the root, so the dispatch runs *)
        let doc =
          let rec container () =
            match small_value rng 1 with
            | (Value.Obj _ | Value.Arr _) as v -> v
            | _ -> container ()
          in
          container ()
        in
        let text = Value.to_string doc in
        let interp = Jschema.Validate.validates schema doc in
        Oracle.Validate.check
          ~what:(Printf.sprintf "case %d, schema %s" i schema_text)
          (Oracle.Validate.plan_routes ~cuts:(Oracle.every_cut text) plan)
          [ (text, interp) ];
        verdicts := interp :: !verdicts
      done;
      if not (List.mem true !verdicts && List.mem false !verdicts) then
        Alcotest.failf "one-sided verdicts on schema %s" schema_text)
    multi_id_schemas

let () =
  Alcotest.run "stream_validate"
    [ ("agreement",
       [ Alcotest.test_case "Table 1 keyword cases" `Quick test_keyword_cases;
         Alcotest.test_case "catalog fuzz, 500 docs" `Quick test_fuzz_catalog;
         Alcotest.test_case "generated schemas, 500 pairs" `Quick
           test_fuzz_generated;
         Alcotest.test_case "one plan shared by two domains" `Quick
           test_shared_plan_domains ]);
      ("errors",
       [ Alcotest.test_case "byte-identical rendered errors" `Quick
           test_error_identity ]);
      ("budget",
       [ Alcotest.test_case "depth exhaustion identity" `Quick
           test_depth_budget_identity;
         Alcotest.test_case "fuel starvation" `Quick test_fuel_budget ]);
      ("spill",
       [ Alcotest.test_case "uniqueItems" `Quick test_spill_unique_items;
         Alcotest.test_case "container enum" `Quick test_spill_container_enum;
         Alcotest.test_case "$ref sharing" `Quick test_spill_ref_sharing;
         Alcotest.test_case "skip accounting" `Quick test_skip_metrics;
         Alcotest.test_case "allocation linear in items" `Quick
           test_spill_linear;
         Alcotest.test_case "sized by its subtree" `Quick
           test_spill_sized_by_subtree;
         Alcotest.test_case "parse.values counted once" `Quick
           test_spill_parse_values;
         Alcotest.test_case "catalog words per byte" `Quick
           test_catalog_allocation ]);
      ("multi-id",
       [ Alcotest.test_case "stream = tree = interpreter, every split" `Quick
           test_multi_id_dispatch ]);
      ("feed",
       [ Alcotest.test_case "keyword cases, chunked" `Quick
           test_feed_keyword_cases;
         Alcotest.test_case "every split point" `Quick test_feed_every_split;
         Alcotest.test_case "exact fuel identity" `Quick
           test_feed_fuel_identity ]);
      ("ndjson",
       [ Alcotest.test_case "line-fault folding" `Quick
           test_ndjson_fault_folding ]) ]
