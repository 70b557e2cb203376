(* Tests for JNL: syntax, concrete syntax, evaluation (Propositions 1
   and 3 semantics), and the Proposition 4 counter-machine encoding. *)

open Jlogic
module Value = Jsont.Value
module Tree = Jsont.Tree

let parse_doc = Jsont.Parser.parse_exn

let figure1 =
  parse_doc
    {|{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}|}

let ctx_of v = Jnl_eval.context (Tree.of_value v)

let holds_root v f = Jnl_eval.satisfies v f

(* ------------------------------------------------------------------ *)
(* Syntax                                                               *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let det = Jnl.Exists (Jnl.Seq (Jnl.Key "a", Jnl.Idx 1)) in
  let f = Jnl.classify det in
  Alcotest.(check bool) "det" true f.Jnl.deterministic;
  Alcotest.(check bool) "not rec" false f.Jnl.recursive;
  let nondet = Jnl.Exists (Jnl.Keys Rexp.Syntax.all) in
  Alcotest.(check bool) "nondet" false (Jnl.classify nondet).Jnl.deterministic;
  let recursive = Jnl.Exists (Jnl.Star (Jnl.Key "a")) in
  let fr = Jnl.classify recursive in
  Alcotest.(check bool) "rec" true fr.Jnl.recursive;
  Alcotest.(check bool) "rec implies nondet class" false fr.Jnl.deterministic;
  let eqp = Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b") in
  Alcotest.(check bool) "eq_paths" true (Jnl.classify eqp).Jnl.uses_eq_paths;
  let alt = Jnl.Exists (Jnl.Alt (Jnl.Key "a", Jnl.Key "b")) in
  Alcotest.(check bool) "alt is nondet" false (Jnl.classify alt).Jnl.deterministic;
  Alcotest.(check bool) "negation flag" true
    (Jnl.classify (Jnl.Not Jnl.True)).Jnl.uses_negation

let test_parser_roundtrip () =
  let cases =
    [ "<.name.first>";
      "eq(.age, 32)";
      "eq(.name.first, \"John\")";
      "true";
      "false";
      "!<.x>";
      "<.a> & <.b> | <.c>";
      "<.hobbies[1]>";
      "<.hobbies[-1]>";
      "<.hobbies[0:*]>";
      "<.items[1:3]>";
      "<.~/a|b/>";
      "<(.a)*.b>";
      "<?(eq(eps, 5))>";
      "eq(.a, .b.c)";
      "eq(.a, {\"x\":[1,2]})";
      "<.a|.b>" ]
  in
  List.iter
    (fun s ->
      match Jnl.parse s with
      | Error m -> Alcotest.failf "parse %S failed: %s" s m
      | Ok f -> (
        let printed = Jnl.to_string f in
        match Jnl.parse printed with
        | Error m -> Alcotest.failf "reparse of %S (from %S) failed: %s" printed s m
        | Ok f' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %S -> %S" s printed)
            true (Jnl.equal f f')))
    cases

let test_parser_errors () =
  List.iter
    (fun s ->
      match Jnl.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error on %S" s)
    [ ""; "<"; "<.a"; "eq(.a)"; "<.a>>"; "!"; "<.a> &"; "eq(,1)";
      (* regression: oversized integers escaped as Failure, not Error *)
      "<.a[99999999999999999999]>"; "<.a[0:99999999999999999999]>" ]

(* Embedded JSON constants are lexed in place, so parsing stays linear
   in the formula however many constants it holds. *)
let test_parser_many_constants () =
  let n = 100_000 in
  let conj atom = String.concat " & " (List.init n (fun _ -> atom)) in
  let jnl = conj {|eq(.a, "x")|} and jsl = conj {|~("x")|} in
  let timed what parse =
    let t0 = Obs.Budget.now_mono () in
    let ok = Result.is_ok (parse ()) in
    let dt = Obs.Budget.now_mono () -. t0 in
    Alcotest.(check bool) (what ^ " parses") true ok;
    if dt > 5.0 then Alcotest.failf "%s took %.1f s" what dt
  in
  timed "JNL, 100 000 constants" (fun () -> Jnl.parse jnl);
  timed "JSL, 100 000 constants" (fun () -> Jsl.parse jsl)

(* ------------------------------------------------------------------ *)
(* Evaluation on the Figure 1 document                                  *)
(* ------------------------------------------------------------------ *)

let f str = Jnl.parse_exn str

let test_eval_basics () =
  let t = [ (true, "<.name>"); (true, "<.name.first>"); (false, "<.name.middle>");
            (true, "eq(.name.first, \"John\")"); (false, "eq(.name.first, \"Jane\")");
            (true, "eq(.age, 32)"); (false, "eq(.age, 33)");
            (true, "<.hobbies[0]>"); (true, "<.hobbies[1]>"); (false, "<.hobbies[2]>");
            (true, "eq(.hobbies[1], \"yoga\")");
            (true, "eq(.hobbies[-1], \"yoga\")");
            (true, "eq(.hobbies[-2], \"fishing\")");
            (false, "<.hobbies[-3]>");
            (true, "<.name> & <.age>"); (false, "<.name> & <.xyz>");
            (true, "<.xyz> | <.age>");
            (true, "!<.xyz>"); (false, "!<.age>");
            (true, "<.~/name|age/>");
            (true, "<.hobbies[0:*]?(eq(eps,\"yoga\"))>");
            (false, "<.hobbies[0:*]?(eq(eps,\"chess\"))>");
            (true, "eq(.name, {\"first\":\"John\",\"last\":\"Doe\"})");
            (true, "eq(.name, {\"last\":\"Doe\",\"first\":\"John\"})") ]
  in
  List.iter
    (fun (expected, s) ->
      Alcotest.(check bool) s expected (holds_root figure1 (f s)))
    t

let test_eval_eq_paths () =
  let doc = parse_doc {|{"a":{"v":[1,2]},"b":{"v":[1,2]},"c":{"v":[2,1]}}|} in
  Alcotest.(check bool) "a = b" true
    (holds_root doc (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "b")));
  Alcotest.(check bool) "a <> c" false
    (holds_root doc (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "c")));
  Alcotest.(check bool) "a = a" true
    (holds_root doc (Jnl.Eq_paths (Jnl.Key "a", Jnl.Key "a")));
  (* nondeterministic: any key equal to any other *)
  let any2 =
    Jnl.Eq_paths
      ( Jnl.Seq (Jnl.Keys Rexp.Syntax.all, Jnl.Key "v"),
        Jnl.Seq (Jnl.Keys (Rexp.Syntax.literal "c"), Jnl.Key "v") )
  in
  Alcotest.(check bool) "exists equal pair" true (holds_root doc any2)

let test_eval_star () =
  let doc = parse_doc {|{"next":{"next":{"next":{"stop":1}}}}|} in
  let reach_stop = Jnl.Exists (Jnl.Seq (Jnl.Star (Jnl.Key "next"), Jnl.Key "stop")) in
  Alcotest.(check bool) "star reaches" true (holds_root doc reach_stop);
  let reach_wrong = Jnl.Exists (Jnl.Seq (Jnl.Star (Jnl.Key "next"), Jnl.Key "halt")) in
  Alcotest.(check bool) "star fails" false (holds_root doc reach_wrong);
  (* star counts ε: ⟦(.next)*⟧ includes the node itself *)
  let ctx = ctx_of doc in
  let succs = Jnl_eval.succs ctx (Jnl.Star (Jnl.Key "next")) Tree.root in
  Alcotest.(check int) "star successors" 4 (List.length succs)

let test_eval_sets () =
  (* eval returns exactly the satisfying nodes *)
  let doc = parse_doc {|{"a":{"x":1},"b":{"x":2},"c":3}|} in
  let ctx = ctx_of doc in
  let set = Jnl_eval.eval ctx (Jnl.Exists (Jnl.Key "x")) in
  (* nodes with an x-child: the a and b objects *)
  Alcotest.(check int) "two nodes have x" 2 (Bitset.cardinal set);
  let tree = Jnl_eval.tree ctx in
  Bitset.iter
    (fun n ->
      Alcotest.(check bool) "has x child" true (Tree.lookup tree n "x" <> None))
    set

let test_eval_pairs () =
  let doc = parse_doc {|{"a":{"b":1}}|} in
  let ctx = ctx_of doc in
  let pairs = Jnl_eval.eval_pairs ctx (Jnl.Seq (Jnl.Key "a", Jnl.Key "b")) in
  Alcotest.(check int) "one pair" 1 (List.length pairs);
  let n, m = List.hd pairs in
  Alcotest.(check bool) "from root" true (n = Tree.root);
  Alcotest.(check (option int)) "to the 1" (Some 1)
    (Tree.int_value (Jnl_eval.tree ctx) m)

let test_select () =
  let vs = Jnl_eval.select figure1 (Jnl.parse_path_exn ".hobbies[0:*]") in
  Alcotest.(check (list string)) "select hobbies"
    [ "\"fishing\""; "\"yoga\"" ]
    (List.map Value.to_string vs)

(* the paper's observation for Proposition 2: X_a[X_1] ∧ X_a[X_b] is
   unsatisfiable because the value under a cannot be both array and
   object; check the evaluation side of that *)
let test_type_disjointness () =
  let phi =
    Jnl.And
      ( Jnl.Exists (Jnl.Seq (Jnl.Key "a", Jnl.Test (Jnl.Exists (Jnl.Idx 1)))),
        Jnl.Exists (Jnl.Seq (Jnl.Key "a", Jnl.Test (Jnl.Exists (Jnl.Key "b")))) )
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) s false (holds_root (parse_doc s) phi))
    [ {|{"a":[1,2]}|}; {|{"a":{"b":1}}|}; {|{"a":5}|} ]

(* ------------------------------------------------------------------ *)
(* Agreement properties between the two evaluators                      *)
(* ------------------------------------------------------------------ *)

let gen_pair nondet =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 1_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    let doc = Jworkload.Gen_json.sized rng 60 in
    let cfg =
      { Jworkload.Gen_formula.default with
        Jworkload.Gen_formula.allow_nondet = nondet;
        allow_star = nondet;
        allow_eq_paths = nondet;
        size = 10 }
    in
    let formula = Jworkload.Gen_formula.jnl rng cfg in
    (doc, formula)
  in
  QCheck.make
    ~print:(fun (d, f) -> Value.to_string d ^ " |= " ^ Jnl.to_string f)
    gen

let prop_check_at_agrees_with_eval nondet name =
  QCheck.Test.make ~name ~count:300 (gen_pair nondet) (fun (doc, formula) ->
      let ctx = ctx_of doc in
      let set = Jnl_eval.eval ctx formula in
      Seq.for_all
        (fun n -> Bitset.mem set n = Jnl_eval.check_at ctx n formula)
        (Tree.nodes (Jnl_eval.tree ctx)))

let prop_not_not =
  QCheck.Test.make ~name:"double negation" ~count:200 (gen_pair true)
    (fun (doc, formula) ->
      holds_root doc formula = holds_root doc (Jnl.Not (Jnl.Not formula)))

let prop_de_morgan =
  QCheck.Test.make ~name:"De Morgan" ~count:200 (gen_pair true)
    (fun (doc, formula) ->
      let g = Jnl.Exists (Jnl.Key "id") in
      holds_root doc (Jnl.Not (Jnl.And (formula, g)))
      = holds_root doc (Jnl.Or (Jnl.Not formula, Jnl.Not g)))

let prop_star_unfold =
  QCheck.Test.make ~name:"⟦α*⟧ = ⟦ε ∪ α∘α*⟧" ~count:100 (gen_pair true)
    (fun (doc, _) ->
      let alpha = Jnl.Key "next" in
      let ctx = ctx_of doc in
      let lhs = Jnl_eval.eval ctx (Jnl.Exists (Jnl.Seq (Jnl.Star alpha, Jnl.Key "id"))) in
      let rhs =
        Jnl_eval.eval ctx
          (Jnl.Or
             ( Jnl.Exists (Jnl.Key "id"),
               Jnl.Exists (Jnl.Seq (alpha, Jnl.Seq (Jnl.Star alpha, Jnl.Key "id"))) ))
      in
      Bitset.equal lhs rhs)

let prop_eps_neutral =
  QCheck.Test.make ~name:"ε neutral for composition" ~count:100 (gen_pair true)
    (fun (doc, formula) ->
      match formula with
      | Jnl.Exists p ->
        holds_root doc (Jnl.Exists (Jnl.Seq (Jnl.Self, p)))
        = holds_root doc (Jnl.Exists p)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: the label-indexed set-at-a-time engine and the *)
(* nodal engines must agree on every observable.                        *)
(* ------------------------------------------------------------------ *)

module Prng = Jworkload.Prng

(* A path generator biased toward the step shapes the label index
   specializes — [Idx]/[Range] with bounds in [-5,5] (including
   out-of-range and statically empty ones), [Key] hits and misses,
   [Keys] with literal and universal expressions — under the usual
   connectives [Seq]/[Alt]/[Test]/[Star]. *)
let fuzz_keys = Jworkload.Gen_formula.default.Jworkload.Gen_formula.keys

let rec fuzz_path rng depth =
  let bound () = Prng.in_range rng (-5) 5 in
  let leaf () =
    match Prng.int rng 6 with
    | 0 -> Jnl.Self
    | 1 -> Jnl.Key (Prng.choose rng ("missing" :: fuzz_keys))
    | 2 -> Jnl.Idx (bound ())
    | 3 ->
      let j = if Prng.bool rng then None else Some (bound ()) in
      Jnl.Range (bound (), j)
    | _ ->
      Jnl.Keys
        (if Prng.int rng 4 = 0 then Rexp.Syntax.all
         else Rexp.Syntax.literal (Prng.choose rng fuzz_keys))
  in
  if depth = 0 then leaf ()
  else
    match Prng.int rng 8 with
    | 0 | 1 -> Jnl.Seq (fuzz_path rng (depth - 1), fuzz_path rng (depth - 1))
    | 2 -> Jnl.Alt (fuzz_path rng (depth - 1), fuzz_path rng (depth - 1))
    | 3 -> Jnl.Test (Jnl.Exists (fuzz_path rng (depth - 1)))
    | 4 -> Jnl.Star (fuzz_path rng (depth - 1))
    | _ -> leaf ()

let test_differential_fuzz () =
  let cases = 1000 in
  for case = 0 to cases - 1 do
    let rng = Prng.create (0x5EED0 + case) in
    let doc = Jworkload.Gen_json.sized rng 40 in
    let tree = Tree.of_value doc in
    let p = fuzz_path rng 2 in
    let phi = Jnl.Exists p in
    let fail_case fmt =
      Printf.ksprintf
        (fun what ->
          Alcotest.failf "case %d: %s\n  path: %s\n  doc: %s" case what
            (Jnl.to_string (Jnl.Exists p))
            (Value.to_string doc))
        fmt
    in
    let ctx = Jnl_eval.context tree in
    let set = Jnl_eval.eval ctx phi in
    let pairs = Jnl_eval.eval_pairs ctx p in
    (* the pre-image of each singleton {n}, read off the relation:
       { m | (m, n) ∈ ⟦α⟧ } *)
    let size = Tree.node_count tree in
    let pre_of = Array.init size (fun _ -> Bitset.create size) in
    List.iter (fun (m, n) -> Bitset.add pre_of.(n) m) pairs;
    Seq.iter
      (fun n ->
        let in_set = Bitset.mem set n in
        if Jnl_eval.check_at ctx n phi <> in_set then
          fail_case "nodal check_at disagrees with eval at node %d" n;
        if in_set <> (Jnl_eval.succs ctx p n <> []) then
          fail_case "succs and eval membership disagree at node %d" n;
        let target = Bitset.create size in
        Bitset.add target n;
        if not (Bitset.equal (Jnl_eval.pre ctx p target) pre_of.(n)) then
          fail_case "pre on singleton {%d} differs from eval_pairs" n)
      (Tree.nodes tree);
    (* the nodal relation must match the pair enumeration *)
    List.iter
      (fun (n, m) ->
        if not (List.mem m (Jnl_eval.succs ctx p n)) then
          fail_case "eval_pairs contains (%d,%d) missing from succs" n m)
      pairs
  done

(* The formulas of [indexed = nodal]'s paths under negation,
   conjunction and disjunction, [eq] against one of the document's own
   subdocuments, [EQ(α,β)], and tests holding any of them. *)
let rec fuzz_form rng tree depth =
  let path () = fuzz_path rng 2 in
  match Prng.int rng (if depth = 0 then 3 else 7) with
  | 0 -> Jnl.Exists (path ())
  | 1 -> Jnl.Eq_doc (path (), Tree.value_at tree (Prng.int rng (Tree.node_count tree)))
  | 2 -> Jnl.Eq_paths (path (), path ())
  | 3 -> Jnl.Not (fuzz_form rng tree (depth - 1))
  | 4 -> Jnl.And (fuzz_form rng tree (depth - 1), fuzz_form rng tree (depth - 1))
  | 5 -> Jnl.Or (fuzz_form rng tree (depth - 1), fuzz_form rng tree (depth - 1))
  | _ -> Jnl.Exists (Jnl.Seq (path (), Jnl.Test (fuzz_form rng tree (depth - 1))))

(* the least fuel [run] needs *)
let least_fuel run =
  let ok fuel =
    match run (Obs.Budget.create ~fuel ()) with
    | _ -> true
    | exception Obs.Budget.Exhausted _ -> false
  in
  let rec search lo hi = if hi - lo <= 1 then hi else
      let mid = (lo + hi) / 2 in
      if ok mid then search lo mid else search mid hi
  in
  if ok 0 then 0 else search 0 (1 lsl 24)

(* Under a demand, the answer is the full set restricted to it: the
   root, as a node and as every tree's roots, no node, a seeded subset,
   and every node, where the fuel spent is [eval]'s too. *)
let test_demand_restriction () =
  for case = 0 to 299 do
    let rng = Prng.create (0xD3A0 + case) in
    let doc = Jworkload.Gen_json.sized rng 40 in
    let tree = Tree.of_value doc in
    let n = Tree.node_count tree in
    let phi = fuzz_form rng tree 2 in
    let full = Jnl_eval.eval (Jnl_eval.context tree) phi in
    let subset = List.filter (fun _ -> Prng.int rng 3 = 0) (List.init n Fun.id) in
    List.iter
      (fun (what, d, members) ->
        let expect = List.filter (Bitset.mem full) members in
        let got = Jnl_eval.eval_in (Jnl_eval.context tree) d phi in
        Alcotest.(check (list int))
          (Printf.sprintf "case %d, %s: %s" case what (Jnl.to_string phi))
          expect (Array.to_list got))
      [ ("the root", `Nodes [| Tree.root |], [ Tree.root ]);
        ("the roots", `Roots, [ Tree.root ]);
        ("no node", `Nodes [||], []);
        ("a subset", `Nodes (Array.of_list subset), subset);
        ("every node", `Every, List.init n Fun.id) ];
    Alcotest.(check int)
      (Printf.sprintf "case %d: fuel under every node" case)
      (least_fuel (fun budget -> Jnl_eval.eval (Jnl_eval.context ~budget tree) phi))
      (least_fuel (fun budget ->
           Jnl_eval.eval_in (Jnl_eval.context ~budget tree) `Every phi))
  done

(* ------------------------------------------------------------------ *)
(* Counter machines (Proposition 4, forward direction)                  *)
(* ------------------------------------------------------------------ *)

(* increment c0 twice, then loop decrementing it to zero, then halt *)
let cm_example =
  { Hardness.states =
      [ ("q0", Hardness.Incr (0, "q1"));
        ("q1", Hardness.Incr (0, "q2"));
        ("q2", Hardness.If_zero (0, "qf", "q3"));
        ("q3", Hardness.Decr (0, "q2"));
        ("qf", Hardness.Halt) ];
    start = "q0";
    final = "qf" }

let test_counter_machine () =
  match Hardness.cm_run cm_example ~max_steps:100 with
  | None -> Alcotest.fail "machine should halt"
  | Some configs ->
    Alcotest.(check bool) "run length" true (List.length configs >= 5);
    let doc = Hardness.cm_run_doc configs in
    let phi = Hardness.cm_to_jnl cm_example in
    Alcotest.(check bool) "encoded run satisfies the formula" true
      (holds_root doc phi);
    (* tamper: final state renamed *)
    let tampered =
      Hardness.cm_run_doc
        (List.map
           (fun (q, a, b) -> ((if q = "qf" then "q9" else q), a, b))
           configs)
    in
    Alcotest.(check bool) "tampered run fails" false (holds_root tampered phi);
    (* tamper: a counter value corrupted mid-run *)
    let corrupt =
      Hardness.cm_run_doc
        (List.mapi (fun i (q, a, b) -> (q, (if i = 1 then a + 1 else a), b)) configs)
    in
    Alcotest.(check bool) "corrupt counters fail" false (holds_root corrupt phi)

let test_machine_that_never_halts () =
  let loop =
    { Hardness.states = [ ("q0", Hardness.Incr (0, "q0")); ("qf", Hardness.Halt) ];
      start = "q0";
      final = "qf" }
  in
  Alcotest.(check bool) "no run found" true
    (Hardness.cm_run loop ~max_steps:200 = None)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_check_at_agrees_with_eval false "check_at = eval (deterministic)";
      prop_check_at_agrees_with_eval true "check_at = eval (full logic)";
      prop_not_not;
      prop_de_morgan;
      prop_star_unfold;
      prop_eps_neutral ]

let () =
  Alcotest.run "jnl"
    [ ("syntax",
       [ Alcotest.test_case "classify" `Quick test_classify;
         Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
         Alcotest.test_case "parser errors" `Quick test_parser_errors;
         Alcotest.test_case "many embedded constants" `Quick
           test_parser_many_constants ]);
      ("evaluation",
       [ Alcotest.test_case "basics on Figure 1" `Quick test_eval_basics;
         Alcotest.test_case "EQ(α,β)" `Quick test_eval_eq_paths;
         Alcotest.test_case "star" `Quick test_eval_star;
         Alcotest.test_case "satisfaction sets" `Quick test_eval_sets;
         Alcotest.test_case "binary relation" `Quick test_eval_pairs;
         Alcotest.test_case "select" `Quick test_select;
         Alcotest.test_case "type disjointness" `Quick test_type_disjointness ]);
      ("differential",
       [ Alcotest.test_case "indexed = nodal (1000 cases)" `Quick
           test_differential_fuzz ]);
      ("demand",
       [ Alcotest.test_case "demand is restriction (300 cases)" `Quick
           test_demand_restriction ]);
      ("counter machines",
       [ Alcotest.test_case "accepting run encodes" `Quick test_counter_machine;
         Alcotest.test_case "non-halting machine" `Quick test_machine_that_never_halts ]);
      ("properties", qcheck_tests) ]
