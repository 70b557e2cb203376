(* Tests for the static-analysis layer: the JSL concrete syntax, the
   simplifier, and containment/equivalence/disjointness checking. *)

open Jlogic
module Value = Jsont.Value

(* ------------------------------------------------------------------ *)
(* JSL concrete syntax                                                  *)
(* ------------------------------------------------------------------ *)

let test_jsl_parser () =
  let cases =
    [ "true"; "false"; "Obj"; "Arr & MinCh(2)"; "Str | Int";
      "!Unique"; "Pattern(/(01)+/)"; "Min(5) & Max(10) & MultOf(2)";
      "dia(/name/)Str"; "box(/a(b|c)a/)MultOf(2)"; "dia[0]Int";
      "box[2:5]Str"; "dia[1:*]true"; "~({\"a\":[1,2]})"; "~(3)";
      "$gamma | dia(/k/)$gamma"; "(Obj | Arr) & MaxCh(4)" ]
  in
  List.iter
    (fun s ->
      match Jsl.parse s with
      | Error m -> Alcotest.failf "parse %S: %s" s m
      | Ok f -> (
        let printed = Jsl.to_string f in
        match Jsl.parse printed with
        | Error m -> Alcotest.failf "reparse %S (of %S): %s" printed s m
        | Ok f' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %S -> %S" s printed)
            true (Jsl.equal f f')))
    cases;
  List.iter
    (fun s ->
      match Jsl.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error on %S" s)
    [ ""; "Min()"; "dia"; "dia(abc)true"; "~(oops)"; "Obj &"; "Frob";
      (* regression: oversized naturals escaped as Failure, not Error *)
      "dia[99999999999999999999]Int"; "MultOf(99999999999999999999)" ]

let gen_jsl =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        size = 10 }
    in
    Jworkload.Gen_formula.jsl rng cfg
  in
  QCheck.make ~print:Jsl.to_string gen

let prop_jsl_pp_parse =
  QCheck.Test.make ~name:"JSL pp/parse roundtrip" ~count:300 gen_jsl (fun f ->
      match Jsl.parse (Jsl.to_string f) with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok f' ->
        (* regular expressions may be re-normalized by the parser, so
           compare semantically on a few documents *)
        let rng = Jworkload.Prng.create 7 in
        List.for_all
          (fun _ ->
            let d = Jworkload.Gen_json.sized rng 30 in
            Jsl.validates d f = Jsl.validates d f')
          [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Simplifier                                                           *)
(* ------------------------------------------------------------------ *)

let test_simplify_cases () =
  let check name input expected =
    Alcotest.(check string) name expected (Jsl.to_string (Simplify.jsl input))
  in
  check "double negation" (Jsl.Not (Jsl.Not (Jsl.Test Jsl.Is_obj))) "Obj";
  check "and unit" (Jsl.And (Jsl.True, Jsl.Test Jsl.Is_str)) "Str";
  check "or absorb" (Jsl.Or (Jsl.True, Jsl.Test Jsl.Is_str)) "true";
  check "kind clash" (Jsl.And (Jsl.Test Jsl.Is_obj, Jsl.Test Jsl.Is_arr)) "false";
  check "bound clash" (Jsl.And (Jsl.Test (Jsl.Min 5), Jsl.Test (Jsl.Max 3))) "false";
  check "child clash" (Jsl.And (Jsl.Test (Jsl.Min_ch 4), Jsl.Test (Jsl.Max_ch 2))) "false";
  check "dia ff" (Jsl.dia_key "a" Jsl.ff) "false";
  check "box true" (Jsl.box_key "a" Jsl.True) "true";
  check "empty range dia" (Jsl.Dia_range (3, Some 1, Jsl.True)) "false";
  check "empty range box" (Jsl.Box_range (3, Some 1, Jsl.ff)) "true";
  check "min zero" (Jsl.Test (Jsl.Min 0)) "Int";
  check "minch zero" (Jsl.Test (Jsl.Min_ch 0)) "true";
  check "dedupe" (Jsl.And (Jsl.Test Jsl.Is_obj, Jsl.Test Jsl.Is_obj)) "Obj";
  let jn name input expected =
    Alcotest.(check string) name expected (Jnl.to_string (Simplify.jnl input))
  in
  jn "exists self" (Jnl.Exists Jnl.Self) "true";
  jn "exists test" (Jnl.Exists (Jnl.Test (Jnl.Exists (Jnl.Key "a")))) "<.a>";
  jn "eps units" (Jnl.Exists (Jnl.Seq (Jnl.Self, Jnl.Seq (Jnl.Key "a", Jnl.Self)))) "<.a>";
  jn "word keys" (Jnl.Exists (Jnl.Keys (Rexp.Syntax.literal "ab"))) "<.ab>";
  jn "singleton range" (Jnl.Exists (Jnl.Range (2, Some 2))) "<[2]>";
  jn "star star" (Jnl.Exists (Jnl.Seq (Jnl.Star (Jnl.Star (Jnl.Key "a")), Jnl.Key "b")))
    "<(.a)*.b>"

let prop_simplify_jsl_preserves =
  QCheck.Test.make ~name:"Simplify.jsl preserves semantics and size" ~count:300
    gen_jsl (fun f ->
      let f' = Simplify.jsl f in
      let rng = Jworkload.Prng.create 11 in
      Jsl.size f' <= Jsl.size f
      && List.for_all
           (fun _ ->
             let d = Jworkload.Gen_json.sized rng 40 in
             Jsl.validates d f = Jsl.validates d f')
           [ 1; 2; 3; 4; 5; 6 ])

let gen_jnl =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = true;
        allow_star = true;
        allow_eq_paths = true;
        size = 10 }
    in
    Jworkload.Gen_formula.jnl rng cfg
  in
  QCheck.make ~print:Jnl.to_string gen

let prop_simplify_jnl_preserves =
  QCheck.Test.make ~name:"Simplify.jnl preserves semantics and size" ~count:300
    gen_jnl (fun f ->
      let f' = Simplify.jnl f in
      let rng = Jworkload.Prng.create 13 in
      Jnl.size f' <= Jnl.size f
      && List.for_all
           (fun _ ->
             let d = Jworkload.Gen_json.sized rng 40 in
             let t = Jsont.Tree.of_value d in
             let c1 = Jnl_eval.context t and c2 = Jnl_eval.context t in
             Bitset.equal (Jnl_eval.eval c1 f) (Jnl_eval.eval c2 f'))
           [ 1; 2; 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* Containment                                                          *)
(* ------------------------------------------------------------------ *)

let test_containment () =
  let num = Jsl.Test Jsl.Is_int in
  let small = Jsl.And (num, Jsl.Test (Jsl.Max 10)) in
  (match Contain.contained small num with
  | Contain.Yes -> ()
  | Contain.No w -> Alcotest.failf "bogus counterexample %s" (Value.to_string w)
  | Contain.Inconclusive m -> Alcotest.fail m);
  (match Contain.contained num small with
  | Contain.No w ->
    Alcotest.(check bool) "counterexample is a big number" true
      (Jsl.validates w num && not (Jsl.validates w small))
  | Contain.Yes -> Alcotest.fail "Int ⊑ Int∧Max(10) should fail"
  | Contain.Inconclusive m -> Alcotest.fail m);
  (match Contain.equivalent (Jsl.And (num, num)) num with
  | Contain.Yes -> ()
  | _ -> Alcotest.fail "ϕ∧ϕ ≡ ϕ");
  (match Contain.disjoint (Jsl.Test Jsl.Is_obj) (Jsl.Test Jsl.Is_arr) with
  | Contain.Yes -> ()
  | _ -> Alcotest.fail "Obj and Arr are disjoint");
  match Contain.disjoint num small with
  | Contain.No w ->
    Alcotest.(check bool) "shared witness" true
      (Jsl.validates w num && Jsl.validates w small)
  | _ -> Alcotest.fail "Int and small numbers overlap"

(* A search that runs out of budget answers Inconclusive, never a
   verdict: Int ⊑ Int∧Max(10) is refuted above, but not on one unit
   of fuel. *)
let test_containment_budget () =
  let num = Jsl.Test Jsl.Is_int in
  let small = Jsl.And (num, Jsl.Test (Jsl.Max 10)) in
  match
    Contain.schema_compatible ~budget:(Obs.Budget.create ~fuel:1 ())
      ~old_:num ~new_:small ()
  with
  | Contain.Inconclusive m ->
    Alcotest.(check string) "reason" "resource budget exhausted: node fuel spent" m
  | Contain.Yes | Contain.No _ -> Alcotest.fail "fuel 1 decided the search"

let test_containment_jnl () =
  let a = Jnl.parse_exn "<.a> & <.b>" in
  let b = Jnl.parse_exn "<.a>" in
  (match Contain.contained_jnl a b with
  | Ok Contain.Yes -> ()
  | Ok _ -> Alcotest.fail "a∧b ⊑ a"
  | Error m -> Alcotest.fail m);
  (match Contain.contained_jnl b a with
  | Ok (Contain.No w) ->
    Alcotest.(check bool) "witness" true
      (Jnl_eval.satisfies w b && not (Jnl_eval.satisfies w a))
  | Ok _ -> Alcotest.fail "a ⊑ a∧b must fail"
  | Error m -> Alcotest.fail m);
  match Contain.contained_jnl (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b")) b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "EQ(α,β) must be rejected"

let prop_simplify_equivalent_by_containment =
  (* the simplifier's output is provably equivalent on the decidable
     fragment, checked by the containment engine itself *)
  QCheck.Test.make ~name:"containment engine certifies the simplifier" ~count:40
    gen_jsl (fun f ->
      QCheck.assume (not (Jsl.uses_unique f));
      let f' = Simplify.jsl f in
      match
        Contain.equivalent ~budget:(Obs.Budget.create ~fuel:1_000_000 ()) f f'
      with
      | Contain.Yes | Contain.Inconclusive _ -> true
      | Contain.No w ->
        QCheck.Test.fail_reportf "disagree on %s" (Value.to_string w))


(* ------------------------------------------------------------------ *)
(* Model enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let test_models () =
  let f = Jsl.parse_exn "dia(/kind/)Pattern(/a|b/) & MaxCh(1)" in
  let ms, _ = Jsl_sat.models ~limit:4 f in
  Alcotest.(check bool) "got several" true (List.length ms >= 2);
  (* all validate, all distinct *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "model %s validates" (Value.to_string m))
        true (Jsl.validates m f))
    ms;
  let rec pairwise = function
    | [] -> true
    | x :: rest -> List.for_all (fun y -> not (Value.equal x y)) rest && pairwise rest
  in
  Alcotest.(check bool) "pairwise distinct" true (pairwise ms);
  (* a formula with exactly one model *)
  let one = Jsl.parse_exn "~(7)" in
  Alcotest.(check int) "singleton model space" 1
    (List.length (fst (Jsl_sat.models ~limit:5 one)));
  Alcotest.(check bool) "unsat has no models, and says so" true
    (Jsl_sat.models ~limit:5 (Jsl.parse_exn "Str & Int") = ([], None));
  (* a spent budget is told apart from an empty model space *)
  match Jsl_sat.models ~limit:5 ~budget:(Obs.Budget.create ~fuel:1 ()) f with
  | [], Some m ->
    Alcotest.(check string) "reason" "resource budget exhausted: node fuel spent" m
  | ms, _ ->
    Alcotest.failf "fuel 1: %d models and no reason" (List.length ms)

(* ------------------------------------------------------------------ *)
(* Recursive JSL concrete syntax                                        *)
(* ------------------------------------------------------------------ *)

let test_jsl_rec_syntax () =
  let text =
    "$g1 = box(/.*/)$g2;\n$g2 = dia(/.*/)true & box(/.*/)$g1;\n$g1"
  in
  let delta = Jsl_rec.parse_exn text in
  Alcotest.(check int) "two defs" 2 (List.length delta.Jsl_rec.defs);
  (* round trip *)
  let delta' = Jsl_rec.parse_exn (Jsl_rec.to_string delta) in
  let docs = [ "{}"; {|{"a":{"b":{}}}|}; {|{"a":{}}|} ] in
  List.iter
    (fun d ->
      let v = Jsont.Parser.parse_exn d in
      Alcotest.(check bool) ("agree on " ^ d)
        (Jsl_rec.validates v delta)
        (Jsl_rec.validates v delta'))
    docs;
  (* strings and regexes containing ';' survive *)
  let tricky = {|$g = dia(/a;b/)~("x;y");
$g|} in
  let t = Jsl_rec.parse_exn tricky in
  Alcotest.(check int) "one def" 1 (List.length t.Jsl_rec.defs);
  (* errors *)
  List.iter
    (fun bad ->
      match Jsl_rec.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error on %S" bad)
    [ "$g = $g; $g" (* ill-formed: non-modal cycle *); "$ = true; $g"; "$g = ;true" ]


(* parsers of the logic layer are total on arbitrary input *)
let gen_garbage =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30);
        map (String.concat " ")
          (list_size (int_range 0 10)
             (oneofl
                [ "dia"; "box"; "("; ")"; "/a/"; "true"; "&"; "|"; "!"; "$g";
                  "Min(3)"; "eq"; "<"; ">"; ".a"; "[1]"; "eps"; "*"; "~(1)" ])) ])

let arbitrary_garbage = QCheck.make ~print:String.escaped gen_garbage

let prop_logic_parsers_total =
  QCheck.Test.make ~name:"Jnl/Jsl/Jsl_rec/regex parsers never raise" ~count:500
    arbitrary_garbage (fun s ->
      (match Jsl.parse s with Ok _ | Error _ -> true)
      && (match Jnl.parse s with Ok _ | Error _ -> true)
      && (match Jnl.parse_path s with Ok _ | Error _ -> true)
      && (match Jsl_rec.parse s with Ok _ | Error _ -> true)
      && (match Rexp.Parse.parse s with Ok _ | Error _ -> true)
      && (match Jquery.Jsonpath.parse s with Ok _ | Error _ -> true)
      && (match Jquery.Mongo.parse_string s with Ok _ | Error _ -> true)
      && match Jschema.Parse.of_string s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "static"
    [ ("jsl syntax",
       [ Alcotest.test_case "parser" `Quick test_jsl_parser;
         QCheck_alcotest.to_alcotest prop_jsl_pp_parse ]);
      ("simplify",
       [ Alcotest.test_case "cases" `Quick test_simplify_cases;
         QCheck_alcotest.to_alcotest prop_simplify_jsl_preserves;
         QCheck_alcotest.to_alcotest prop_simplify_jnl_preserves ]);
      ("models",
       [ Alcotest.test_case "enumeration" `Quick test_models ]);
      ("jsl_rec syntax",
       [ Alcotest.test_case "roundtrip" `Quick test_jsl_rec_syntax ]);
      ("robustness",
       [ QCheck_alcotest.to_alcotest prop_logic_parsers_total ]);
      ("containment",
       [ Alcotest.test_case "jsl" `Quick test_containment;
         Alcotest.test_case "jnl" `Quick test_containment_jnl;
         QCheck_alcotest.to_alcotest prop_simplify_equivalent_by_containment;
         Alcotest.test_case "spent budget is inconclusive" `Quick
           test_containment_budget ]) ]
