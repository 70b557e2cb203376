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

(* The least fuel [run] needs to finish: [run] raises
   [Obs.Budget.Exhausted] below it and not at or above it. *)
let min_fuel run =
  let ok fuel =
    match run (Obs.Budget.create ~fuel ()) with
    | _ -> true
    | exception Obs.Budget.Exhausted _ -> false
  in
  let rec search lo hi = (* ok hi, not (ok lo) *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if ok mid then search lo mid else search mid hi
  in
  search 0 1_000_000

let test_ref_sharing () =
  let schema = parse_schema (Catalog.ref_sharing_schema 8) in
  check_agree ~what:"ref-sharing k=8" schema Catalog.ref_sharing_doc
    (Some false);
  (* the compiled plan interns each definition once: node count is
     linear in k, not exponential *)
  let plan = Validate.Plan.compile schema in
  Alcotest.(check bool)
    "plan is linear in k" true
    (Validate.Plan.node_count plan <= 3 * 8 + 5);
  (* and evaluates each once: along k = 8, 12, 16 the interpreter's
     fuel doubles per step (the 2^k unfolding) while the plan's grows
     by a constant *)
  let doc = Catalog.ref_sharing_doc in
  let fuel k =
    let schema = parse_schema (Catalog.ref_sharing_schema k) in
    let plan = Validate.Plan.compile schema in
    ( min_fuel (fun budget -> Validate.validates ~budget schema doc),
      min_fuel (fun budget -> Validate.Plan.run ~budget plan doc) )
  in
  let fuels = List.map fuel [ 8; 12; 16 ] in
  let rate side =
    let a = side (List.hd fuels) and b = side (List.nth fuels 2) in
    (float_of_int b /. float_of_int a) ** (1. /. 8.)
  in
  if rate fst < 1.5 || rate snd > 1.3 then
    Alcotest.failf
      "per-step fuel growth: interpreter x%.2f (want >= 1.5), plan x%.2f \
       (want <= 1.3); fuel (interpreter, plan) at k = 8, 12, 16: %s"
      (rate fst) (rate snd)
      (String.concat " " (List.map (fun (i, p) -> Printf.sprintf "(%d, %d)" i p) fuels))

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

(* ---- wide definitions ----------------------------------------------------- *)

(* [n] definitions, each referenced from one property of the root:
   bounded numbers, lowercase strings and objects requiring "x", in
   turn. *)
let wide_defs_text ?(extra_defs = "") ?(extra_props = "") n =
  let b = Buffer.create (n * 80) in
  Buffer.add_string b {|{"definitions":{|};
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"d%d":%s|} i
      (match i mod 3 with
      | 0 -> Printf.sprintf {|{"type":"number","minimum":%d}|} (i mod 7)
      | 1 -> {|{"type":"string","pattern":"[a-z]*"}|}
      | _ -> {|{"type":"object","required":["x"]}|})
  done;
  Buffer.add_string b extra_defs;
  Buffer.add_string b {|},"type":"object","properties":{|};
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"p%d":{"$ref":"#/definitions/d%d"}|} i i
  done;
  Buffer.add_string b extra_props;
  Buffer.add_string b "}}";
  Buffer.contents b

let wide_n = 16_384

let cpu_timed what bound f =
  let t0 = Sys.time () in
  let v = f () in
  let t = Sys.time () -. t0 in
  if t > bound then
    Alcotest.failf "%s took %.2f s with %d definitions (bound %.2f s)" what t
      wide_n bound;
  v

(* A bound linear work meets with a wide margin: fifteen times what
   the direct tree builder takes on the schema text (every stage takes
   about as long as it), and at least 1.5 s.  A list scan per key or
   per definition takes fifty to a hundred times as long. *)
let linear_bound text =
  let t0 = Sys.time () in
  ignore (Tree.of_string_exn ~mode:`Lenient text);
  Float.max 1.5 (15. *. (Sys.time () -. t0))

let test_wide_verdicts () =
  let text = wide_defs_text wide_n in
  let bound = linear_bound text in
  let timed what f = cpu_timed what bound f in
  let schema = timed "Parse.of_string" (fun () -> parse_schema text) in
  Alcotest.(check int) "every definition kept" wide_n
    (List.length schema.Jschema.Schema.definitions);
  timed "Schema.well_formed" (fun () ->
      Alcotest.(check bool) "well-formed" true
        (Jschema.Schema.well_formed schema = Ok ()));
  let plan = timed "compile" (fun () -> Validate.Plan.compile schema) in
  let r = timed "To_jsl.document" (fun () -> Jschema.To_jsl.document schema) in
  let jsl_plan =
    timed "of_jsl" (fun () ->
        Validate.Plan.of_jsl ~defs:r.Jlogic.Jsl_rec.defs r.Jlogic.Jsl_rec.base)
  in
  let last = wide_n - 1 in
  List.iter
    (fun (doc_text, expected) ->
      let doc = parse_doc doc_text in
      let got =
        [ ("interpreter", Validate.validates schema doc);
          ("compile tree", Validate.Plan.run_tree plan (Tree.of_string_exn doc_text));
          ("compile stream", Validate.Plan.run_stream plan doc_text);
          ("of_jsl tree", Validate.Plan.run_tree jsl_plan (Tree.of_string_exn doc_text));
          ("of_jsl stream", Validate.Plan.run_stream jsl_plan doc_text) ]
      in
      List.iter
        (fun (route, v) ->
          Alcotest.(check bool) (Printf.sprintf "%s on %s" route doc_text) expected v)
        got)
    [ ("{}", true);
      ({|{"p0":0,"p1":"abc","p2":{"x":1}}|}, true);
      ({|{"p3":0}|}, false);
      ({|{"p1":"ABC"}|}, false);
      ({|{"p2":{}}|}, false);
      (Printf.sprintf {|{"p%d":%d}|} last (last mod 7), true);
      (Printf.sprintf {|{"p%d":%d,"q":[]}|} (last - 1) (last mod 7), false);
      ("[]", false) ]

(* Flat schemas as wide as the definitions above: [To_jsl] folds 20k
   sibling properties into one conjunction and a 20k-value [enum] into
   one disjunction, and [of_jsl] walks their spines at one depth, so
   under the CLI's default depth ceiling both compile and agree with
   [compile] on tree and stream. *)
let test_wide_flat () =
  let n = 20_000 in
  let list f = String.concat "," (List.init n f) in
  let properties =
    Printf.sprintf {|{"type":"object","properties":{%s}}|}
      (list (fun i -> Printf.sprintf {|"p%d":{"type":"number","minimum":%d}|} i (i mod 7)))
  in
  let enum =
    Printf.sprintf {|{"enum":[%s,{"o":[1,2]}]}|}
      (list (fun i -> if i mod 2 = 0 then string_of_int i else Printf.sprintf {|"s%d"|} i))
  in
  let budget () = Obs.Budget.depth_limited Obs.Budget.default_max_depth in
  List.iter
    (fun (text, docs) ->
      let schema = parse_schema text in
      let plan = Validate.Plan.compile ~budget:(budget ()) schema in
      let r = Jschema.To_jsl.document schema in
      let jsl_plan =
        Validate.Plan.of_jsl ~budget:(budget ()) ~defs:r.Jlogic.Jsl_rec.defs
          r.Jlogic.Jsl_rec.base
      in
      List.iter
        (fun (doc_text, expected) ->
          List.iter
            (fun (route, v) ->
              Alcotest.(check bool) (Printf.sprintf "%s on %s" route doc_text)
                expected v)
            [ ("interpreter", Validate.validates schema (parse_doc doc_text));
              ("compile tree", Validate.Plan.run_tree plan (Tree.of_string_exn doc_text));
              ("compile stream", Validate.Plan.run_stream plan doc_text);
              ("of_jsl tree", Validate.Plan.run_tree jsl_plan (Tree.of_string_exn doc_text));
              ("of_jsl stream", Validate.Plan.run_stream jsl_plan doc_text) ])
        docs)
    [ ( properties,
        [ ("{}", true); ({|{"p1":5,"p19999":6}|}, true); ({|{"p3":2}|}, false);
          ({|{"p19999":"x"}|}, false); ({|{"q":[]}|}, true); ("[]", false) ] );
      ( enum,
        [ ("0", true); ("19998", true); ({|"s19999"|}, true); ({|"s2"|}, false);
          ("1", false); ({|{"o":[1,2]}|}, true); ({|{"o":[2,1]}|}, false);
          ("[]", false) ] ) ]

let check_error what expected = function
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error m -> Alcotest.(check string) what expected m

let test_wide_errors () =
  let text = wide_defs_text wide_n in
  let bound = linear_bound text in
  let timed what f = cpu_timed what bound f in
  let wide = parse_schema text in
  let defs = wide.Jschema.Schema.definitions in
  (* schema documents *)
  let with_defs extra = { wide with Jschema.Schema.definitions = defs @ extra } in
  timed "duplicate definition" (fun () ->
      check_error "duplicate definition" {|definition "d100" given twice|}
        (Jschema.Schema.well_formed (with_defs [ ("d100", []) ])));
  timed "first duplicate in order" (fun () ->
      check_error "first duplicate in order" {|definition "x" given twice|}
        (Jschema.Schema.well_formed
           (with_defs [ ("x", []); ("y", []); ("y", []); ("x", []) ])));
  timed "compile of a duplicate" (fun () ->
      match Validate.Plan.compile (with_defs [ ("d7", []) ]) with
      | _ -> Alcotest.fail "compile accepted a duplicate definition"
      | exception Invalid_argument m ->
        Alcotest.(check string) "compile error"
          {|Jschema.Validate.Plan.compile: definition "d7" given twice|} m);
  timed "unresolvable $ref" (fun () ->
      check_error "unresolvable $ref" {|unresolvable $ref to "missing"|}
        (Jschema.Parse.of_string
           (wide_defs_text wide_n
              ~extra_props:
                {|,"q":{"$ref":"#/definitions/missing"},"r":{"$ref":"#/definitions/gone"}|})));
  timed "reference cycle" (fun () ->
      check_error "reference cycle" {|reference cycle through "c0"|}
        (Jschema.Parse.of_string
           (wide_defs_text wide_n
              ~extra_defs:
                {|,"c0":{"allOf":[{"$ref":"#/definitions/c1"}]},"c1":{"not":{"$ref":"#/definitions/c0"}}|})));
  (* recursive JSL *)
  let sym_defs = List.init wide_n (fun i -> (Printf.sprintf "v%d" i, Jsl.Test Jsl.Is_int)) in
  let base = Jsl.conj (List.map (fun (v, _) -> Jsl.box_key v (Jsl.Var v)) sym_defs) in
  let jsl_error what expected extra base =
    timed what (fun () ->
        let defs = sym_defs @ extra in
        check_error what expected
          (Jlogic.Jsl_rec.well_formed { Jlogic.Jsl_rec.defs; base });
        match Validate.Plan.of_jsl ~defs base with
        | _ -> Alcotest.failf "of_jsl accepted: %s" what
        | exception Invalid_argument m ->
          Alcotest.(check string) (what ^ " through of_jsl")
            ("Jschema.Validate.Plan.of_jsl: " ^ expected) m)
  in
  timed "well-formed symbols" (fun () ->
      Alcotest.(check bool) "well-formed symbols" true
        (Jlogic.Jsl_rec.well_formed { Jlogic.Jsl_rec.defs = sym_defs; base } = Ok ()));
  jsl_error "duplicate symbol" "symbol $v7 defined twice" [ ("v7", Jsl.True) ] base;
  jsl_error "undefined symbol" "undefined symbol $nowhere" []
    (Jsl.And (base, Jsl.Or (Jsl.Var "nowhere", Jsl.Var "elsewhere")));
  jsl_error "precedence cycle" "precedence cycle through $a"
    [ ("a", Jsl.Var "b"); ("b", Jsl.And (Jsl.Test Jsl.Is_obj, Jsl.Var "a")) ]
    (Jsl.And (base, Jsl.Var "a"))

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
           test_of_jsl_random_rec ]);
      ("wide definitions",
       [ Alcotest.test_case "verdicts agree" `Quick test_wide_verdicts;
         Alcotest.test_case "error texts" `Quick test_wide_errors;
         Alcotest.test_case "flat properties and enum" `Quick test_wide_flat ]) ]
