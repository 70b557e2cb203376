(* JSL and JNL on the one plan IR: [Validate.Plan.of_jsl] compiles a
   formula (JNL through the Theorem 2 translation), and the plan's tree
   executor, its stream executor — one-shot and fed in chunks — and the
   interpreters must agree on every document (the §6 conjecture,
   realized by the production engine). *)

open Jlogic
module Value = Jsont.Value
module Parser = Jsont.Parser
module Plan = Jschema.Validate.Plan
module Prng = Jworkload.Prng

let re = Rexp.Parse.parse_exn

let stream_validates text f =
  match Parser.wrap (fun () -> Plan.run_stream (Plan.of_jsl f) text) with
  | Ok b -> b
  | Error e -> Alcotest.failf "stream error on %s: %s" text (Plan_oracle.render e)

let test_supported () =
  (* everything the formula language has compiles and streams: Unique,
     regex keys, index ranges, and ~(A) on containers (which spills) *)
  let cases =
    [ (Jsl.Test Jsl.Unique, [ ("[1,2]", true); ("[1,1]", false); ("{}", false) ]);
      ( Jsl.Dia_keys (re "a|b", Jsl.Test Jsl.Is_int),
        [ ({|{"b":1}|}, true); ({|{"c":1}|}, false); ({|{"a":"x"}|}, false) ] );
      ( Jsl.Box_range (1, None, Jsl.Test Jsl.Is_str),
        [ ({|[1,"x","y"]|}, true); ({|[1,"x",2]|}, false); ("[1]", true) ] );
      ( Jsl.Dia_range (1, Some 2, Jsl.Test Jsl.Is_str),
        [ ({|[1,2,"x"]|}, true); ({|["x",1,2,"y"]|}, false) ] );
      ( Jsl.Test (Jsl.Eq_doc (Parser.parse_exn {|{"a":[1]}|})),
        [ ({|{"a":[1]}|}, true); ({|{"a":[2]}|}, false); ("1", false) ] );
      ( Jsl.conj [ Jsl.Test (Jsl.Min_ch 2); Jsl.Test (Jsl.Max_ch 2) ],
        [ ("[1,2]", true); ({|{"a":1,"b":2}|}, true); ("[1]", false); ({|"s"|}, false) ] ) ]
  in
  List.iter
    (fun (f, docs) ->
      let plan = Plan.of_jsl f in
      List.iter
        (fun (text, expected) ->
          let what = Jsl.to_string f ^ " on " ^ text in
          Alcotest.(check bool) what expected (Jsl.validates (Parser.parse_exn text) f);
          Plan_oracle.check ~what ~expected plan text ~cuts:(Plan_oracle.every_cut text))
        docs)
    cases;
  (* what stays out: free recursion symbols (Jsl_rec's business) and
     positions outside ℕ *)
  (match Plan.of_jsl (Jsl.Var "g") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "free recursion symbol must be rejected");
  match Plan.of_jsl (Jsl.Box_range (0, Some (-1), Jsl.True)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index must be rejected"

let test_stream_basics () =
  let phi =
    Jsl.conj
      [ Jsl.Test Jsl.Is_obj;
        Jsl.dia_key "name" (Jsl.Test Jsl.Is_str);
        Jsl.dia_key "age" (Jsl.And (Jsl.Test (Jsl.Min 0), Jsl.Test (Jsl.Max 150)));
        Jsl.box_key "nick" (Jsl.Test Jsl.Is_str) ]
  in
  Alcotest.(check bool) "valid person" true
    (stream_validates {|{"name":"Sue","age":28}|} phi);
  Alcotest.(check bool) "with nick" true
    (stream_validates {|{"name":"Sue","age":28,"nick":"S"}|} phi);
  Alcotest.(check bool) "bad nick" false
    (stream_validates {|{"name":"Sue","age":28,"nick":7}|} phi);
  Alcotest.(check bool) "missing name" false (stream_validates {|{"age":28}|} phi);
  Alcotest.(check bool) "age too big" false
    (stream_validates {|{"name":"Sue","age":200}|} phi);
  Alcotest.(check bool) "not an object" false (stream_validates {|[1,2]|} phi)

let test_stream_malformed () =
  let plan = Plan.of_jsl (Jsl.Test Jsl.Is_obj) in
  List.iter
    (fun text ->
      match Parser.wrap (fun () -> Plan.run_stream plan text) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected stream error on %s" text)
    [ "{"; "{\"a\":}"; "{\"a\":1,}"; "[1,]"; "true"; "{\"a\":1} trailing";
      {|{"dup":1,"dup":2}|} ]

let test_constant_memory () =
  (* a payload no formula node constrains is fast-forwarded by the
     skipper, in memory proportional to its depth — never materialized,
     whatever its size *)
  let plan = Plan.of_jsl (Jsl.dia_key "id" (Jsl.Test Jsl.Is_int)) in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  List.iter
    (fun n ->
      let payload = Value.to_string (Jworkload.Gen_json.sized (Prng.create 42) n) in
      let text = Printf.sprintf {|{"id":1,"payload":%s}|} payload in
      Obs.Metrics.reset ();
      Alcotest.(check bool) "validates" true (Plan.run_stream plan text);
      Alcotest.(check int)
        (Printf.sprintf "no spill at %d" n)
        0
        (Obs.Metrics.counter_value "validate.stream.spills");
      Alcotest.(check bool)
        (Printf.sprintf "payload of %d values skipped" n)
        true
        (Obs.Metrics.counter_value "validate.stream.skipped_bytes"
        >= String.length payload))
    [ 100; 1_000; 10_000 ]

(* ---- JNL, through the Theorem 2 translation ------------------------------ *)

let jnl_plan phi = Result.map Plan.of_jsl (Translate.jnl_to_jsl phi)

let test_validate_jnl () =
  let phi = Jnl.parse_exn {|eq(.name.first, "John") & !<.archived>|} in
  let doc = {|{"name":{"first":"John"},"age":32}|} in
  (match jnl_plan phi with
  | Ok plan ->
    Plan_oracle.check ~what:"det JNL streams" ~expected:true plan doc ~cuts:[ 9 ];
    Plan_oracle.check ~what:"mismatch detected" ~expected:false plan
      {|{"name":{"first":"Jane"}}|} ~cuts:[ 3 ]
  | Error m -> Alcotest.fail m);
  (* non-deterministic JNL streams too *)
  (match jnl_plan (Jnl.parse_exn {|<[0:*].a>|}) with
  | Ok plan ->
    Plan_oracle.check ~what:"range step" ~expected:true plan
      {|[{"b":1},{"a":2}]|} ~cuts:[ 5 ]
  | Error m -> Alcotest.fail m);
  (* recursion and EQ(α,β) have no JSL counterpart *)
  (match jnl_plan (Jnl.Exists (Jnl.Star (Jnl.Key "a"))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recursive formula must be rejected");
  match jnl_plan (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "EQ(α,β) must be rejected"

let test_jnl_differential () =
  let cfg =
    { Jworkload.Gen_formula.default with
      size = 10;
      allow_nondet = true;
      allow_negation = true }
  in
  let checked = ref 0 and held = ref 0 in
  for case = 0 to 999 do
    let rng = Prng.create (0x5EED + case) in
    let phi = Jworkload.Gen_formula.jnl rng cfg in
    let doc = Jworkload.Gen_json.sized rng (1 + Prng.int rng 60) in
    match jnl_plan phi with
    | Error _ -> () (* negative indices: outside JSL's ranges *)
    | Ok plan ->
      incr checked;
      let text = Value.to_string doc in
      let expected = Jnl_eval.satisfies doc phi in
      if expected then incr held;
      Plan_oracle.check
        ~what:(Printf.sprintf "case %d: %s" case (Jnl.to_string phi))
        ~expected plan text
        ~cuts:[ Prng.int rng (String.length text + 1) ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough translatable formulas (%d/1000)" !checked)
    true (!checked > 500);
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts (%d of %d hold)" !held !checked)
    true
    (!held > 50 && !checked - !held > 50)

(* ---- the JSL differential -------------------------------------------------- *)

let test_jsl_differential () =
  let cfg =
    { Jworkload.Gen_formula.default with
      size = 14;
      allow_nondet = true;
      allow_negation = true }
  in
  let held = ref 0 in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  for case = 0 to 1199 do
    let rng = Prng.create (0xD1FF + case) in
    let f = Jworkload.Gen_formula.jsl rng cfg in
    let f = if case mod 3 = 0 then Plan_oracle.arr_to_unique f else f in
    let doc = Jworkload.Gen_json.sized rng (1 + Prng.int rng 80) in
    let text = Value.to_string doc in
    let expected = Jsl.validates doc f in
    if expected then incr held;
    (* every split point on the first hundred pairs, one random split on
       the rest *)
    let cuts =
      if case < 100 then Plan_oracle.every_cut text
      else [ Prng.int rng (String.length text + 1) ]
    in
    Plan_oracle.check
      ~what:(Printf.sprintf "case %d: %s" case (Jsl.to_string f))
      ~expected (Plan.of_jsl f) text ~cuts
  done;
  let spills = Obs.Metrics.counter_value "validate.stream.spills" in
  Obs.Metrics.set_enabled false;
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts (%d of 1200 hold)" !held)
    true
    (!held > 100 && !held < 1100);
  Alcotest.(check bool)
    (Printf.sprintf "Unique and container ~(A) spill (%d spills)" spills)
    true (spills > 100)

let () =
  Alcotest.run "stream"
    [ ("fragment", [ Alcotest.test_case "supported" `Quick test_supported ]);
      ("validation",
       [ Alcotest.test_case "basics" `Quick test_stream_basics;
         Alcotest.test_case "malformed input" `Quick test_stream_malformed;
         Alcotest.test_case "constant memory" `Quick test_constant_memory ]);
      ("jnl",
       [ Alcotest.test_case "validate_jnl" `Quick test_validate_jnl;
         Alcotest.test_case "JNL streaming = tree evaluation" `Quick
           test_jnl_differential ]);
      ("properties",
       [ Alcotest.test_case "streaming = tree-based evaluation" `Quick
           test_jsl_differential ]) ]
