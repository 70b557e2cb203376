(* Differential suite for the compiled validation plans: the compiled
   schema executor (over values and over trees) against the structural
   interpreter, and JSL formulas compiled by [Plan.of_jsl] against the
   same relation through the Theorem 1 schema — on the Table 1 keyword
   cases, the property-heavy catalog, random [gen_formula]-derived
   schemas, the $ref-sharing family, and under fuel/depth budgets —
   and recursive JSL compiled by [Plan.of_jsl ~defs] against
   [Plan.compile] and the recursive JSL interpreter. *)

module Value = Jsont.Value
module Tree = Jsont.Tree
module Jsl = Jlogic.Jsl
module Prng = Jworkload.Prng
module Catalog = Jworkload.Catalog
module Validate = Jschema.Validate

let parse_doc = Jsont.Parser.parse_exn ~mode:`Lenient
let parse_schema = Jschema.Parse.of_string_exn

(* every engine we have for the schema-validation relation *)
let verdicts schema doc =
  let plan = Validate.Plan.compile schema in
  let interpreted = Validate.validates schema doc in
  let prepared = Validate.prepare schema doc in
  let compiled = Validate.Plan.run plan doc in
  let on_tree = Validate.Plan.run_tree plan (Tree.of_value doc) in
  let from_string =
    Validate.Plan.run_tree plan (Tree.of_string_exn (Value.to_string doc))
  in
  (interpreted, [ prepared; compiled; on_tree; from_string ])

let check_agree ~what schema doc expected =
  let interpreted, rest = verdicts schema doc in
  (match expected with
  | Some e ->
    if interpreted <> e then
      Alcotest.failf "%s: interpreter says %b, expected %b" what interpreted e
  | None -> ());
  List.iteri
    (fun i v ->
      if v <> interpreted then
        Alcotest.failf "%s: engine %d says %b, interpreter %b" what i v
          interpreted)
    rest

(* ---- Table 1 keyword cases (incl. the JSL translation) ------------------- *)

let test_keyword_cases () =
  List.iter
    (fun (name, schema_text, docs) ->
      let schema = parse_schema schema_text in
      let jsl = Jschema.To_jsl.document schema in
      List.iter
        (fun (doc_text, expected) ->
          let doc = parse_doc doc_text in
          check_agree
            ~what:(Printf.sprintf "%s on %s" name doc_text)
            schema doc (Some expected);
          let via_jsl = Jlogic.Jsl_rec.validates doc jsl in
          if via_jsl <> expected then
            Alcotest.failf "%s on %s: via JSL %b, expected %b" name doc_text
              via_jsl expected)
        docs)
    Catalog.keyword_cases

(* ---- the property-heavy catalog ------------------------------------------ *)

let test_catalog_differential () =
  let schema = parse_schema Catalog.catalog_schema in
  let plan = Validate.Plan.compile schema in
  let check = Validate.prepare schema in
  let rng = Prng.create 0xCA7A106 in
  let seen_true = ref false and seen_false = ref false in
  for case = 0 to 299 do
    let doc = Catalog.catalog_doc rng in
    let interpreted = check doc in
    if interpreted then seen_true := true else seen_false := true;
    let compiled = Validate.Plan.run plan doc in
    let on_tree =
      Validate.Plan.run_tree plan (Tree.of_string_exn (Value.to_string doc))
    in
    if compiled <> interpreted || on_tree <> interpreted then
      Alcotest.failf "catalog case %d: %b / %b / %b on %s" case interpreted
        compiled on_tree (Value.to_string doc)
  done;
  Alcotest.(check bool) "both verdicts exercised" true (!seen_true && !seen_false)

(* ---- random schemas from random JSL formulas ----------------------------- *)

let test_fuzz_differential () =
  let cfg =
    { Jworkload.Gen_formula.default with
      size = 18;
      allow_nondet = true;
      allow_negation = true }
  in
  for case = 0 to 999 do
    let rng = Prng.create (0xC0DE + case) in
    let f = Jworkload.Gen_formula.jsl rng cfg in
    let schema = Jschema.Schema.plain (Jschema.Of_jsl.schema f) in
    let doc = Jworkload.Gen_json.sized rng 40 in
    (match Jschema.Schema.well_formed schema with
    | Error m -> Alcotest.failf "case %d: generated schema ill-formed: %s" case m
    | Ok () -> ());
    check_agree
      ~what:(Printf.sprintf "fuzz case %d (doc %s)" case (Value.to_string doc))
      schema doc None;
    (* the formula compiled directly agrees with its Theorem 1 schema *)
    let direct = Validate.Plan.run (Validate.Plan.of_jsl f) doc in
    if direct <> Validate.validates schema doc then
      Alcotest.failf "case %d: of_jsl says %b against its schema on %s for %s"
        case direct (Value.to_string doc) (Jsl.to_string f)
  done

(* ---- $ref sharing and reference cycles ----------------------------------- *)

let test_ref_sharing () =
  let schema = parse_schema (Catalog.ref_sharing_schema 8) in
  check_agree ~what:"ref-sharing k=8" schema Catalog.ref_sharing_doc
    (Some false);
  (* the compiled plan interns each definition once: node count is
     linear in k, not exponential *)
  let plan = Validate.Plan.compile schema in
  Alcotest.(check bool)
    "plan is linear in k" true
    (Validate.Plan.node_count plan <= 3 * 8 + 5)

let test_ref_cycle_regression () =
  (* a modal (well-formed) $ref cycle: arbitrarily nested objects of
     objects; compile must terminate and agree with the interpreter *)
  let schema =
    parse_schema
      {|{"definitions":{"t":{"type":"object",
          "additionalProperties":{"$ref":"#/definitions/t"}}},
         "$ref":"#/definitions/t"}|}
  in
  List.iter
    (fun (text, expected) ->
      check_agree ~what:("cyclic $ref on " ^ text) schema (parse_doc text)
        (Some expected))
    [ ("{}", true);
      ({|{"a":{},"b":{"c":{"d":{}}}}|}, true);
      ({|{"a":{"b":3}}|}, false);
      ("[]", false) ];
  (* linked list through properties *)
  let list_schema =
    parse_schema
      {|{"definitions":{"cell":{"anyOf":[
           {"enum":["nil"]},
           {"type":"object","required":["head","tail"],
            "properties":{"head":{"type":"number"},
                          "tail":{"$ref":"#/definitions/cell"}}}]}},
         "$ref":"#/definitions/cell"}|}
  in
  List.iter
    (fun (text, expected) ->
      check_agree ~what:("list cell on " ^ text) list_schema (parse_doc text)
        (Some expected))
    [ ({|"nil"|}, true);
      ({|{"head":1,"tail":{"head":2,"tail":"nil"}}|}, true);
      ({|{"head":1,"tail":{"head":"x","tail":"nil"}}|}, false) ]

let test_memo_hits () =
  (* sharing actually goes through the memo table *)
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let schema = parse_schema (Catalog.ref_sharing_schema 10) in
  let plan = Validate.Plan.compile schema in
  let _ = Validate.Plan.run plan Catalog.ref_sharing_doc in
  let hits = Obs.Metrics.counter_value "validate.memo.hit" in
  Obs.Metrics.set_enabled false;
  Alcotest.(check bool) "memo hits recorded" true (hits >= 10)

(* ---- well-formedness satellites ------------------------------------------ *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_well_formed () =
  let reject text expect_frag =
    match Jschema.Parse.of_string text with
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s (got %S)" text expect_frag m)
        true
        (contains_substring m expect_frag)
    | Ok _ -> Alcotest.failf "%s accepted" text
  in
  reject {|{"multipleOf":0}|} "multipleOf 0";
  reject {|{"properties":{"a":{"not":{"multipleOf":0}}}}|} "multipleOf 0";
  reject
    {|{"definitions":{"d":{"items":[{"multipleOf":0}]}},"$ref":"#/definitions/d"}|}
    "multipleOf 0";
  (* still fine: multipleOf 0 must not reject other multiples *)
  let s = parse_schema {|{"multipleOf":3}|} in
  Alcotest.(check bool) "multipleOf 3 ok" true (Validate.validates s (Value.Num 9));
  (* duplicate definitions are reported by name *)
  let dup =
    { Jschema.Schema.definitions = [ ("d", []); ("d", []) ]; root = [] }
  in
  (match Jschema.Schema.well_formed dup with
  | Error m ->
    Alcotest.(check bool) "dup mentions name" true (contains_substring m "\"d\"")
  | Ok () -> Alcotest.fail "duplicate definitions accepted");
  (* compile rejects ill-formed documents like the interpreter *)
  let zero = Jschema.Schema.plain [ Jschema.Schema.C_multiple_of 0 ] in
  (match Validate.Plan.compile zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Plan.compile accepted multipleOf 0");
  match Validate.validates zero (Value.Num 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "validates accepted multipleOf 0"

(* ---- budget agreement ---------------------------------------------------- *)

let test_budget_agreement () =
  let schema = parse_schema Catalog.catalog_schema in
  let plan = Validate.Plan.compile schema in
  let check = Validate.prepare schema in
  let rng = Prng.create 0xB06E7 in
  for case = 0 to 49 do
    let doc = Catalog.catalog_doc rng in
    for fuel = 1 to 40 do
      let run_engine f =
        match f (Obs.Budget.create ~fuel ()) with
        | b -> Some b
        | exception Obs.Budget.Exhausted _ -> None
      in
      let interp = run_engine (fun budget -> check ~budget doc) in
      let comp = run_engine (fun budget -> Validate.Plan.run ~budget plan doc) in
      match (interp, comp) with
      | Some a, Some b when a <> b ->
        Alcotest.failf "case %d fuel %d: verdicts differ (%b vs %b)" case fuel
          a b
      | _ -> ()
    done;
    (* with ample fuel both complete and agree *)
    let budget = Obs.Budget.create ~fuel:1_000_000 () in
    let a = check ~budget doc in
    let budget = Obs.Budget.create ~fuel:1_000_000 () in
    let b = Validate.Plan.run ~budget plan doc in
    if a <> b then Alcotest.failf "case %d: ample-fuel verdicts differ" case
  done;
  (* a depth ceiling exhausts every engine on a deep document, through
     a schema that follows the document's spine *)
  let deep = Jworkload.Gen_json.deep_chain 200 in
  let hits_ceiling f =
    match f (Obs.Budget.create ~max_depth:50 ()) with
    | (_ : bool) -> false
    | exception Obs.Budget.Exhausted Obs.Budget.Depth -> true
  in
  let spine =
    parse_schema
      {|{"definitions":{"t":{"additionalProperties":{"$ref":"#/definitions/t"},
          "items":[{"$ref":"#/definitions/t"}],
          "additionalItems":{"$ref":"#/definitions/t"}}},
         "$ref":"#/definitions/t"}|}
  in
  let spine_plan = Validate.Plan.compile spine in
  Alcotest.(check bool)
    "interpreter hits depth ceiling" true
    (hits_ceiling (fun budget -> Validate.validates ~budget spine deep));
  Alcotest.(check bool)
    "compiled hits depth ceiling" true
    (hits_ceiling (fun budget -> Validate.Plan.run ~budget spine_plan deep))

(* ---- plan size follows the formula's shape, not its numbers ------------- *)

(* [node_count] of a plan and its compile time in seconds *)
let timed_count compile x =
  let t0 = Unix.gettimeofday () in
  let n = Validate.Plan.node_count (compile x) in
  (n, Unix.gettimeofday () -. t0)

let test_numeric_parameters () =
  (* through the Theorem 1 schema ([Of_jsl]) these enumerate array
     lengths: quadratic in the number, seconds at 1500 *)
  let filter text =
    Validate.Plan.of_jsl (Jquery.Mongo.to_jsl (Jquery.Mongo.parse_string_exn text))
  in
  let formula text = Validate.Plan.of_jsl (Jsl.parse_exn text) in
  List.iter
    (fun (compile, small, large) ->
      let n_small, _ = timed_count compile small in
      let n_large, secs = timed_count compile large in
      Alcotest.(check int) (large ^ " has the nodes of " ^ small) n_small n_large;
      Alcotest.(check bool)
        (Printf.sprintf "%s compiles in %.3fs" large secs)
        true (secs < 0.1))
    [ (filter, {|{"a.3": 1}|}, {|{"a.100000": 1}|});
      (filter, {|{"a": {"$size": 3}}|}, {|{"a": {"$size": 100000}}|});
      (formula, "dia[3]true", "dia[100000]true");
      (formula, "MaxCh(3)", "MaxCh(100000)") ];
  (* a 100k-deep formula meets the depth ceiling, not the stack *)
  let rec deep n f = if n = 0 then f else deep (n - 1) (Jsl.dia_idx 0 f) in
  match Validate.Plan.of_jsl ~budget:(Obs.Budget.create ()) (deep 100_000 Jsl.True) with
  | _ -> Alcotest.fail "a 100k-deep formula must exhaust the depth ceiling"
  | exception Obs.Budget.Exhausted Obs.Budget.Depth -> ()

(* ---- recursive JSL: of_jsl with definitions ------------------------------ *)

(* The routes for [schema]: [compile schema], the recursive JSL
   interpreter on its Theorem 3 translation, and [of_jsl ~defs] of that
   translation on tree and stream — [check doc] demands all four agree. *)
let via_jsl_checker ~what schema =
  let direct_plan = Validate.Plan.compile schema in
  let r = Jschema.To_jsl.document schema in
  let plan =
    Validate.Plan.of_jsl ~defs:r.Jlogic.Jsl_rec.defs r.Jlogic.Jsl_rec.base
  in
  fun doc ->
    let text = Value.to_string doc in
    let direct = Validate.Plan.run direct_plan doc in
    let interp = Jlogic.Jsl_rec.validates doc r in
    let tree = Validate.Plan.run_tree plan (Tree.of_string_exn text) in
    let stream = Validate.Plan.run_stream plan text in
    if not (direct = interp && tree = direct && stream = direct) then
      Alcotest.failf
        "%s on %s: compile %b, Jsl_rec %b, of_jsl tree %b stream %b" what text
        direct interp tree stream

let test_of_jsl_defs () =
  List.iter
    (fun (name, schema_text, docs) ->
      let check = via_jsl_checker ~what:name (parse_schema schema_text) in
      List.iter (fun (doc_text, _) -> check (parse_doc doc_text)) docs)
    Catalog.keyword_cases;
  let check =
    via_jsl_checker ~what:"catalog" (parse_schema Catalog.catalog_schema)
  in
  let rng = Prng.create 0x0F75 in
  for _ = 0 to 299 do
    check (Catalog.catalog_doc rng)
  done;
  List.iter
    (fun k ->
      via_jsl_checker
        ~what:(Printf.sprintf "ref-sharing k=%d" k)
        (parse_schema (Catalog.ref_sharing_schema k))
        Catalog.ref_sharing_doc)
    [ 4; 8; 12 ];
  let check =
    via_jsl_checker ~what:"cyclic $ref"
      (parse_schema
         {|{"definitions":{"t":{"type":"object",
             "additionalProperties":{"$ref":"#/definitions/t"}}},
            "$ref":"#/definitions/t"}|})
  in
  List.iter
    (fun text -> check (parse_doc text))
    [ "{}"; {|{"a":{},"b":{"c":{"d":{}}}}|}; {|{"a":{"b":3}}|}; "[]" ]

let test_of_jsl_random_rec () =
  let trues = ref 0 in
  for case = 0 to 599 do
    let rng = Prng.create (0x5EC0 + case) in
    let cfg =
      { Jworkload.Gen_formula.default with
        size = 8;
        allow_nondet = case mod 2 = 0 }
    in
    let r = Jworkload.Gen_formula.jsl_rec rng cfg ~n_defs:(1 + (case mod 3)) in
    let plan =
      Validate.Plan.of_jsl ~defs:r.Jlogic.Jsl_rec.defs r.Jlogic.Jsl_rec.base
    in
    for _ = 1 to 5 do
      let doc = Jworkload.Gen_json.sized rng 30 in
      let text = Value.to_string doc in
      let expected = Jlogic.Jsl_rec.validates doc r in
      if expected then incr trues;
      let tree = Validate.Plan.run_tree plan (Tree.of_string_exn text) in
      let stream = Validate.Plan.run_stream plan text in
      if tree <> expected || stream <> expected then
        Alcotest.failf "case %d: Jsl_rec %b, tree %b, stream %b on %s for %s"
          case expected tree stream text (Jlogic.Jsl_rec.to_string r)
    done
  done;
  Alcotest.(check bool) "both verdicts exercised" true
    (!trues > 0 && !trues < 3000);
  let rejects what defs base =
    match Validate.Plan.of_jsl ~defs base with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "undefined symbol" [ ("a", Jsl.True) ] (Jsl.Var "b");
  rejects "precedence cycle"
    [ ("a", Jsl.Var "b"); ("b", Jsl.And (Jsl.Test Jsl.Is_obj, Jsl.Var "a")) ]
    (Jsl.Var "a");
  rejects "free symbol without defs" [] (Jsl.Not (Jsl.Var "a"))

let () =
  Alcotest.run "compile"
    [ ("keyword-cases", [ Alcotest.test_case "table1" `Quick test_keyword_cases ]);
      ("catalog",
       [ Alcotest.test_case "catalog differential" `Quick
           test_catalog_differential ]);
      ("differential",
       [ Alcotest.test_case "fuzz schema+jsl" `Quick test_fuzz_differential ]);
      ("ref-sharing",
       [ Alcotest.test_case "asymptotic sharing" `Quick test_ref_sharing;
         Alcotest.test_case "cyclic $ref regression" `Quick
           test_ref_cycle_regression;
         Alcotest.test_case "memo hits" `Quick test_memo_hits ]);
      ("well-formed",
       [ Alcotest.test_case "multipleOf 0 / dup defs" `Quick test_well_formed ]);
      ("budget",
       [ Alcotest.test_case "fuel/depth agreement" `Quick test_budget_agreement ]);
      ("numeric parameters",
       [ Alcotest.test_case "plan size ignores numbers" `Quick
           test_numeric_parameters ]);
      ("recursive jsl",
       [ Alcotest.test_case "of_jsl with definitions" `Quick test_of_jsl_defs;
         Alcotest.test_case "random recursive formulas" `Quick
           test_of_jsl_random_rec ]) ]
