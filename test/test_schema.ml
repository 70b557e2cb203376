(* Tests for the JSON Schema library: parsing, printing, and the
   validator against the paper's §5.1 examples (one per Table 1
   keyword). *)

module Value = Jsont.Value

let parse_doc = Jsont.Parser.parse_exn
let schema = Jschema.Parse.of_string_exn

let ok s d =
  Alcotest.(check bool)
    (Printf.sprintf "%s validates" d)
    true
    (Jschema.Validate.validates s (Jsont.Parser.parse_exn ~mode:`Lenient d))

let no s d =
  Alcotest.(check bool)
    (Printf.sprintf "%s rejected" d)
    false
    (Jschema.Validate.validates s (Jsont.Parser.parse_exn ~mode:`Lenient d))

(* ------------------------------------------------------------------ *)
(* §5.1 examples                                                        *)
(* ------------------------------------------------------------------ *)

let test_string_schemas () =
  let any_string = schema {|{"type":"string"}|} in
  ok any_string {|"anything"|};
  no any_string "42";
  no any_string "[]";
  let bits = schema {|{"type":"string","pattern":"(01)+"}|} in
  ok bits {|"01"|};
  ok bits {|"010101"|};
  no bits {|"0"|};
  no bits {|""|};
  no bits "7"

let test_number_schemas () =
  let s = schema {|{"type":"number","maximum":12,"multipleOf":4}|} in
  (* the paper: describes numbers 0, 4, 8 and 12 *)
  List.iter (fun d -> ok s d) [ "0"; "4"; "8"; "12" ];
  List.iter (fun d -> no s d) [ "1"; "16"; "13"; {|"4"|} ];
  let min = schema {|{"type":"number","minimum":5}|} in
  ok min "5";
  no min "4"

let test_object_schema_example () =
  (* the §5.1 object example: name string; a(b|c)a keys even numbers;
     everything else exactly the number 1 *)
  let s =
    schema
      {|{
        "type": "object",
        "properties": { "name": {"type":"string"} },
        "patternProperties": { "a(b|c)a": {"type":"number", "multipleOf": 2} },
        "additionalProperties": { "type":"number", "minimum":1, "maximum":1 }
      }|}
  in
  ok s {|{"name":"x"}|};
  ok s {|{"name":"x","aba":4,"aca":0,"other":1}|};
  no s {|{"name":3}|};
  no s {|{"aba":3}|};
  no s {|{"other":2}|};
  no s {|{"other":"s"}|};
  ok s {|{}|}

let test_array_schema_example () =
  (* §5.1: at least 2 elements, first two strings, remaining numbers,
     all distinct *)
  let s =
    schema
      {|{
        "type": "array",
        "items": [ {"type":"string"}, {"type":"string"} ],
        "additionalItems": {"type":"number"},
        "uniqueItems": true
      }|}
  in
  ok s {|["a","b"]|};
  ok s {|["a","b",1,2,3]|};
  no s {|["a"]|};
  no s {|["a","b","c"]|};
  no s {|["a","b",1,1]|};
  no s {|["a","a"]|};
  no s {|{"a":1}|}

let test_items_exact_length () =
  (* without additionalItems, items pins the length (paper semantics) *)
  let s = schema {|{"type":"array","items":[{"type":"number"}]}|} in
  ok s "[3]";
  no s "[]";
  no s "[3,4]"

let test_boolean_combinations () =
  let odd = schema {|{"not":{"type":"number","multipleOf":2}}|} in
  ok odd "3";
  no odd "4";
  ok odd {|"string"|};  (* not-a-number also passes, per the paper *)
  let either = schema {|{"anyOf":[{"type":"string"},{"type":"number"}]}|} in
  ok either {|"s"|};
  ok either "1";
  no either "[]";
  let both = schema {|{"allOf":[{"minimum":2},{"maximum":4}]}|} in
  ok both "3";
  no both "5";
  let enum = schema {|{"enum":[1,"two",{"three":3}]}|} in
  ok enum "1";
  ok enum {|"two"|};
  ok enum {|{"three":3}|};
  no enum "2"

let test_min_max_properties_required () =
  let s = schema {|{"type":"object","minProperties":1,"maxProperties":2,"required":["a"]}|} in
  ok s {|{"a":1}|};
  ok s {|{"a":1,"b":2}|};
  no s {|{}|};
  no s {|{"b":1}|};
  no s {|{"a":1,"b":2,"c":3}|}

let test_parse_errors () =
  List.iter
    (fun s ->
      match Jschema.Parse.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected schema parse error on %s" s)
    [ {|{"type":"frobnicate"}|};
      {|{"pattern":"("}|};
      {|{"minimum":"high"}|};
      {|{"unknownKeyword":1}|};
      {|{"$ref":"http://elsewhere"}|};
      {|{"$ref":"#/definitions/ghost"}|};
      {|{"properties":{"a":{"definitions":{}}}}|};
      "[1,2]" ]

let msg_contains needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_malformed_numerics () =
  (* pre-fix, [1e30] slipped through the lenient float narrowing as the
     garbage value [int_of_float] happens to produce (0 here), silently
     rewriting the schema's bound; now it is a positioned error *)
  (match Jschema.Parse.of_string {|{"minimum":1e30}|} with
  | Error m ->
    Alcotest.(check bool) ("positioned: " ^ m) true (msg_contains "line" m)
  | Ok _ -> Alcotest.fail "minimum 1e30 must be rejected");
  List.iter
    (fun s ->
      match Jschema.Parse.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected schema parse error on %s" s)
    [ {|{"multipleOf":1e30}|}; {|{"maximum":2.5}|}; {|{"minProperties":-1}|} ];
  (* in-range integral floats still narrow under the lenient rules *)
  match Jschema.Parse.of_string {|{"minimum":4e2}|} with
  | Ok s ->
    Alcotest.(check bool) "narrowed bound applies" true
      (Jschema.Validate.validates s (Value.Num 400));
    Alcotest.(check bool) "narrowed bound rejects below" false
      (Jschema.Validate.validates s (Value.Num 399))
  | Error m -> Alcotest.failf "integral float must narrow: %s" m

let test_duplicate_keywords_rejected () =
  (* the text route rejects duplicate keys at the JSON layer already;
     pre-fix, [of_value] silently conjoined a keyword smuggled in twice
     through a programmatically built value *)
  let dup =
    Value.Obj [ ("type", Value.Str "string"); ("type", Value.Str "number") ]
  in
  (match Jschema.Parse.of_value dup with
  | Error m ->
    Alcotest.(check bool) ("names the keyword: " ^ m) true
      (msg_contains {|"type"|} m)
  | Ok _ -> Alcotest.fail "duplicate keyword must be rejected");
  (* ... anywhere in the tree, not just at the root *)
  let nested =
    Value.Obj
      [ ("properties",
         Value.Obj
           [ ("a",
              Value.Obj [ ("minimum", Value.Num 1); ("minimum", Value.Num 2) ])
           ]) ]
  in
  (match Jschema.Parse.of_value nested with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested duplicate keyword must be rejected");
  (* negative or non-numeric bounds cannot ride in through of_value *)
  (match Jschema.Parse.of_value (Value.Obj [ ("minimum", Value.Num (-5)) ]) with
  | Error m ->
    Alcotest.(check bool) ("mentions natural: " ^ m) true
      (msg_contains "natural" m)
  | Ok _ -> Alcotest.fail "negative bound must be rejected");
  match Jschema.Parse.of_value (Value.Obj [ ("maxProperties", Value.Num 3) ]) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "plain nat bound rejected: %s" m

let test_ref_cycles () =
  (match
     Jschema.Parse.of_string
       {|{"definitions":{"a":{"not":{"$ref":"#/definitions/a"}}},"$ref":"#/definitions/a"}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-modal ref cycle must be rejected");
  match
    Jschema.Parse.of_string
      {|{"definitions":{"a":{"properties":{"x":{"$ref":"#/definitions/a"}}}},
         "$ref":"#/definitions/a"}|}
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "modal ref cycle wrongly rejected: %s" m

let test_to_value_roundtrip () =
  let texts =
    [ {|{"type":"string","pattern":"ab*"}|};
      {|{"type":"object","properties":{"a":{"type":"number"}},"required":["a"]}|};
      {|{"type":"array","items":[{"type":"string"}],"additionalItems":{"type":"number"},"uniqueItems":true}|};
      {|{"anyOf":[{"type":"string"},{"not":{"enum":[1,2]}}]}|};
      {|{"definitions":{"e":{"type":"string"}},"not":{"$ref":"#/definitions/e"}}|} ]
  in
  let docs =
    [ {|"abbb"|}; {|"c"|}; "5"; {|{"a":1}|}; {|{"a":"s"}|}; {|["x"]|}; {|["x",3]|};
      "[1,2]"; "{}"; "1" ]
  in
  List.iter
    (fun text ->
      let s = schema text in
      let reparsed =
        match Jschema.Parse.of_value (Jschema.Schema.to_value s) with
        | Ok s -> s
        | Error m -> Alcotest.failf "reparse of %s failed: %s" text m
      in
      List.iter
        (fun d ->
          let v = parse_doc d in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" text d)
            (Jschema.Validate.validates s v)
            (Jschema.Validate.validates reparsed v))
        docs)
    texts

let test_lenient_booleans () =
  (* literal true/false in schema text work through lenient parsing *)
  let s = schema {|{"type":"array","uniqueItems":true}|} in
  ok s "[1,2]";
  no s "[1,1]";
  let s2 = schema {|{"type":"object","additionalProperties":false}|} in
  ok s2 "{}";
  no s2 {|{"a":1}|}


(* ------------------------------------------------------------------ *)
(* Schema inference (the §5.2 motivation, executable)                  *)
(* ------------------------------------------------------------------ *)

let user_examples =
  List.map parse_doc
    [ {|{"id":1,"name":"Sue","tags":["a","b"],"age":28}|};
      {|{"id":2,"name":"John","tags":[],"age":32}|};
      {|{"id":3,"name":"Ana","tags":["c"]}|} ]

let test_infer_basics () =
  let schema = Jschema.Infer.infer user_examples in
  (* every example validates *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Value.to_string d ^ " validates against the inferred schema")
        true
        (Jschema.Validate.validates_schema schema d))
    user_examples;
  (* keys present everywhere are required, others are not *)
  let doc = Jschema.Schema.plain schema in
  ok doc {|{"id":9,"name":"Li","tags":["x"]}|};
  no doc {|{"name":"Li","tags":[]}|};  (* id is required *)
  no doc {|{"id":"nine","name":"Li","tags":[]}|};  (* id must be a number *)
  no doc {|{"id":9,"name":"Li","tags":[3]}|}  (* tags hold strings *)

let test_infer_strict () =
  let schema = Jschema.Infer.infer ~mode:`Strict user_examples in
  let doc = Jschema.Schema.plain schema in
  List.iter
    (fun d ->
      Alcotest.(check bool) "examples still validate (strict)" true
        (Jschema.Validate.validates (Jschema.Schema.plain schema) d))
    user_examples;
  (* strict mode closes the object and bounds the numbers *)
  no doc {|{"id":1,"name":"Sue","tags":[],"age":28,"extra":0}|};
  no doc {|{"id":99,"name":"Sue","tags":[]}|}  (* id beyond the observed 1..3 *)

let test_infer_heterogeneous () =
  let examples = List.map parse_doc [ "1"; {|"s"|}; "[2]"; "7" ] in
  let schema = Jschema.Infer.infer examples in
  List.iter
    (fun d ->
      Alcotest.(check bool) "mixed types validate" true
        (Jschema.Validate.validates_schema schema d))
    examples;
  Alcotest.(check bool) "objects rejected" false
    (Jschema.Validate.validates_schema schema (parse_doc "{}"))

let test_infer_enum_detection () =
  let examples =
    List.map parse_doc
      [ {|"red"|}; {|"green"|}; {|"red"|}; {|"green"|}; {|"red"|}; {|"red"|} ]
  in
  let schema = Jschema.Infer.infer examples in
  Alcotest.(check bool) "categorical becomes enum" true
    (match schema with [ Jschema.Schema.C_enum _ ] -> true | _ -> false);
  Alcotest.(check bool) "unseen value rejected" false
    (Jschema.Validate.validates_schema schema (parse_doc {|"blue"|}))

let gen_docs =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    List.init
      (1 + Jworkload.Prng.int rng 5)
      (fun _ -> Jworkload.Gen_json.sized rng 30)
  in
  QCheck.make
    ~print:(fun ds -> String.concat "\n" (List.map Value.to_string ds))
    gen

let prop_infer_sound =
  QCheck.Test.make ~name:"every example validates against its inferred schema"
    ~count:300 gen_docs (fun docs ->
      let loose = Jschema.Infer.infer docs in
      let strict = Jschema.Infer.infer ~mode:`Strict docs in
      List.for_all
        (fun d ->
          Jschema.Validate.validates_schema loose d
          && Jschema.Validate.validates_schema strict d)
        docs)

let prop_infer_roundtrips_as_json =
  QCheck.Test.make ~name:"inferred schema survives print/parse" ~count:150
    gen_docs (fun docs ->
      let doc = Jschema.Infer.infer_document docs in
      match Jschema.Parse.of_value (Jschema.Schema.to_value doc) with
      | Error _ -> false
      | Ok reparsed ->
        List.for_all
          (fun d ->
            Jschema.Validate.validates reparsed d
            = Jschema.Validate.validates doc d)
          docs)

let () =
  Alcotest.run "schema"
    [ ("§5.1 examples",
       [ Alcotest.test_case "string schemas" `Quick test_string_schemas;
         Alcotest.test_case "number schemas" `Quick test_number_schemas;
         Alcotest.test_case "object example" `Quick test_object_schema_example;
         Alcotest.test_case "array example" `Quick test_array_schema_example;
         Alcotest.test_case "items exact length" `Quick test_items_exact_length;
         Alcotest.test_case "boolean combinations" `Quick test_boolean_combinations;
         Alcotest.test_case "min/max/required" `Quick test_min_max_properties_required ]);
      ("inference",
       [ Alcotest.test_case "basics" `Quick test_infer_basics;
         Alcotest.test_case "strict mode" `Quick test_infer_strict;
         Alcotest.test_case "heterogeneous" `Quick test_infer_heterogeneous;
         Alcotest.test_case "enum detection" `Quick test_infer_enum_detection;
         QCheck_alcotest.to_alcotest prop_infer_sound;
         QCheck_alcotest.to_alcotest prop_infer_roundtrips_as_json ]);
      ("parsing",
       [ Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "malformed numerics" `Quick test_malformed_numerics;
         Alcotest.test_case "duplicate keywords" `Quick
           test_duplicate_keywords_rejected;
         Alcotest.test_case "$ref cycles" `Quick test_ref_cycles;
         Alcotest.test_case "to_value roundtrip" `Quick test_to_value_roundtrip;
         Alcotest.test_case "lenient booleans" `Quick test_lenient_booleans ]) ]
