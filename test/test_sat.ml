(* Tests for the satisfiability procedures (Propositions 2, 5, 7, 10)
   and the hardness-instance encoders with their oracles. *)

open Jlogic
module Value = Jsont.Value

let lit v p = { Hardness.var = v; positive = p }

(* ------------------------------------------------------------------ *)
(* JSL satisfiability                                                   *)
(* ------------------------------------------------------------------ *)

let expect_sat name f =
  match Jsl_sat.satisfiable f with
  | Jautomaton.Sat v ->
    Alcotest.(check bool)
      (name ^ ": witness validates")
      true (Jsl.validates v f)
  | Jautomaton.Unsat -> Alcotest.failf "%s: expected Sat, got Unsat" name
  | Jautomaton.Unknown m -> Alcotest.failf "%s: expected Sat, got Unknown (%s)" name m

let expect_unsat name f =
  match Jsl_sat.satisfiable f with
  | Jautomaton.Unsat -> ()
  | Jautomaton.Sat v ->
    Alcotest.failf "%s: expected Unsat, got witness %s" name (Value.to_string v)
  | Jautomaton.Unknown m -> Alcotest.failf "%s: expected Unsat, got Unknown (%s)" name m

let re = Rexp.Parse.parse_exn

let test_jsl_sat_basic () =
  expect_sat "true" Jsl.True;
  expect_unsat "false" Jsl.ff;
  expect_sat "Str" (Jsl.Test Jsl.Is_str);
  expect_sat "pattern" (Jsl.Test (Jsl.Pattern (re "(01)+")));
  expect_unsat "empty pattern" (Jsl.Test (Jsl.Pattern (re "a[]")));
  expect_sat "number range" (Jsl.And (Jsl.Test (Jsl.Min 10), Jsl.Test (Jsl.Max 20)));
  expect_unsat "empty number range"
    (Jsl.And (Jsl.Test (Jsl.Min 21), Jsl.Test (Jsl.Max 20)));
  expect_sat "multiple in range"
    (Jsl.conj [ Jsl.Test (Jsl.Min 10); Jsl.Test (Jsl.Max 20); Jsl.Test (Jsl.Mult_of 7) ]);
  expect_unsat "no multiple in range"
    (Jsl.conj [ Jsl.Test (Jsl.Min 15); Jsl.Test (Jsl.Max 20); Jsl.Test (Jsl.Mult_of 7) ]);
  expect_sat "key exists" (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int));
  (* the Proposition 2 observation, in JSL form: the value under a
     cannot be both an array and an object *)
  expect_unsat "type clash under a key"
    (Jsl.And
       ( Jsl.dia_key "a" (Jsl.Test Jsl.Is_arr),
         Jsl.dia_key "a" (Jsl.Test Jsl.Is_obj) ));
  expect_sat "two keys, different types"
    (Jsl.And
       ( Jsl.dia_key "a" (Jsl.Test Jsl.Is_arr),
         Jsl.dia_key "b" (Jsl.Test Jsl.Is_obj) ));
  expect_unsat "child count clash"
    (Jsl.And (Jsl.Test (Jsl.Min_ch 3), Jsl.Test (Jsl.Max_ch 2)));
  expect_sat "array with required positions"
    (Jsl.And (Jsl.dia_idx 2 (Jsl.Test Jsl.Is_str), Jsl.Test Jsl.Is_arr));
  expect_unsat "dia under both kinds"
    (Jsl.And (Jsl.dia_idx 0 Jsl.True, Jsl.dia_key "x" Jsl.True));
  expect_sat "disjunction with one satisfiable side"
    (Jsl.Or (Jsl.ff, Jsl.dia_key "z" Jsl.True));
  expect_sat "enum" (Jsl.Test (Jsl.Eq_doc (Jsont.Parser.parse_exn {|{"a":[1,2]}|})));
  expect_unsat "enum conflicting with type"
    (Jsl.And (Jsl.Test (Jsl.Eq_doc (Value.Num 3)), Jsl.Test Jsl.Is_str))

let test_jsl_sat_patterns () =
  (* requires a key matching a(b|c)a with an even value AND the same
     object to have key aba with value 3 → clash *)
  expect_unsat "patternProperties clash"
    (Jsl.And
       ( Jsl.Box_keys (re "a(b|c)a", Jsl.Test (Jsl.Mult_of 2)),
         Jsl.dia_key "aba" (Jsl.And (Jsl.Test Jsl.Is_int, Jsl.Test (Jsl.Eq_doc (Value.Num 3)))) ));
  expect_sat "patternProperties compatible"
    (Jsl.And
       ( Jsl.Box_keys (re "a(b|c)a", Jsl.Test (Jsl.Mult_of 2)),
         Jsl.dia_key "aba" (Jsl.Test (Jsl.Eq_doc (Value.Num 4))) ));
  (* the PSPACE-hardness trigger: [X_{Σ*}] ∧ [X_e] unsat iff e universal;
     here box Σ* ff ∧ dia e true *)
  expect_unsat "no key can exist"
    (Jsl.And (Jsl.Box_keys (Rexp.Syntax.all, Jsl.ff), Jsl.Dia_keys (re "ab*", Jsl.True)))

let test_jsl_sat_unique () =
  expect_sat "unique array of 2 strings"
    (Jsl.conj
       [ Jsl.Test Jsl.Unique;
         Jsl.Test (Jsl.Min_ch 2);
         Jsl.Box_range (0, None, Jsl.Test Jsl.Is_str) ]);
  (* 3 pairwise-distinct children that must all equal the same document *)
  expect_unsat "unique vs forced equality"
    (Jsl.conj
       [ Jsl.Test Jsl.Unique;
         Jsl.Test (Jsl.Min_ch 2);
         Jsl.Box_range (0, None, Jsl.Test (Jsl.Eq_doc (Value.Num 7))) ])

let test_jsl_rec_sat () =
  (* even-depth trees exist *)
  let even =
    Jsl_rec.make_exn
      ~defs:
        [ ("g1", Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g2"));
          ( "g2",
            Jsl.And
              ( Jsl.Dia_keys (Rexp.Syntax.all, Jsl.True),
                Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g1") ) ) ]
      ~base:(Jsl.Var "g1")
  in
  (match Jsl_sat.satisfiable_rec even with
  | Jautomaton.Sat v ->
    Alcotest.(check bool) "even witness validates" true (Jsl_rec.validates v even)
  | Jautomaton.Unsat -> Alcotest.fail "even-depth schema is satisfiable"
  | Jautomaton.Unknown m -> Alcotest.failf "unknown: %s" m);
  (* a schema requiring an infinite descending chain is unsatisfiable *)
  let infinite =
    Jsl_rec.make_exn
      ~defs:[ ("g", Jsl.dia_key "next" (Jsl.Var "g")) ]
      ~base:(Jsl.Var "g")
  in
  match Jsl_sat.satisfiable_rec infinite with
  | Jautomaton.Unsat -> ()
  | Jautomaton.Sat v -> Alcotest.failf "impossible witness %s" (Value.to_string v)
  | Jautomaton.Unknown m -> Alcotest.failf "unknown: %s" m

(* ------------------------------------------------------------------ *)
(* 3SAT (Proposition 2)                                                 *)
(* ------------------------------------------------------------------ *)

let cnf_cases : (string * int * Hardness.cnf) list =
  [ ("unit", 1, [ [ lit 0 true ] ]);
    ("contradiction", 1, [ [ lit 0 true ]; [ lit 0 false ] ]);
    ( "simple sat",
      3,
      [ [ lit 0 true; lit 1 false; lit 2 true ];
        [ lit 0 false; lit 1 true; lit 2 false ];
        [ lit 1 true; lit 2 true; lit 0 false ] ] );
    ( "pigeonhole-ish unsat",
      2,
      [ [ lit 0 true; lit 1 true ];
        [ lit 0 true; lit 1 false ];
        [ lit 0 false; lit 1 true ];
        [ lit 0 false; lit 1 false ] ] ) ]

let test_3sat_encoding_vs_dpll () =
  List.iter
    (fun (name, nvars, cnf) ->
      let formula = Hardness.cnf_to_jnl ~nvars cnf in
      let expected = Hardness.dpll ~nvars cnf <> None in
      (match Jnl_sat.satisfiable formula with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok (Jautomaton.Sat v) ->
        Alcotest.(check bool) (name ^ " expected sat") true expected;
        Alcotest.(check bool)
          (name ^ " witness satisfies the JNL formula")
          true (Jnl_eval.satisfies v formula)
      | Ok Jautomaton.Unsat ->
        Alcotest.(check bool) (name ^ " expected unsat") false expected
      | Ok (Jautomaton.Unknown m) -> Alcotest.failf "%s: unknown (%s)" name m);
      (* the assignment document matches the CNF truth value *)
      match Hardness.dpll ~nvars cnf with
      | Some a ->
        Alcotest.(check bool)
          (name ^ ": satisfying assignment's document validates")
          true
          (Jnl_eval.satisfies (Hardness.assignment_doc a) formula)
      | None -> ())
    cnf_cases

let test_3sat_random_agreement () =
  let rng = Jworkload.Prng.create 20260704 in
  for _ = 1 to 15 do
    let nvars = 3 + Jworkload.Prng.int rng 3 in
    let nclauses = 3 + Jworkload.Prng.int rng 6 in
    let cnf =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              lit (Jworkload.Prng.int rng nvars) (Jworkload.Prng.bool rng)))
    in
    let expected = Hardness.dpll ~nvars cnf <> None in
    let formula = Hardness.cnf_to_jnl ~nvars cnf in
    match Jnl_sat.satisfiable formula with
    | Error m -> Alcotest.fail m
    | Ok (Jautomaton.Sat _) ->
      Alcotest.(check bool) "random cnf sat agrees" true expected
    | Ok Jautomaton.Unsat ->
      Alcotest.(check bool) "random cnf unsat agrees" false expected
    | Ok (Jautomaton.Unknown m) -> Alcotest.failf "unknown: %s" m
  done

(* ------------------------------------------------------------------ *)
(* QBF (Proposition 7)                                                  *)
(* ------------------------------------------------------------------ *)

let qbf_cases : (string * Hardness.qbf) list =
  [ ("∃x. x", { Hardness.prefix = [ `Exists ]; matrix = [ [ lit 0 true ] ] });
    ("∀x. x", { Hardness.prefix = [ `Forall ]; matrix = [ [ lit 0 true ] ] });
    ( "∀x∃y. x≠y",
      { Hardness.prefix = [ `Forall; `Exists ];
        matrix = [ [ lit 0 true; lit 1 true ]; [ lit 0 false; lit 1 false ] ] } );
    ( "∃y∀x. x≠y (false)",
      { Hardness.prefix = [ `Exists; `Forall ];
        matrix = [ [ lit 1 true; lit 0 true ]; [ lit 1 false; lit 0 false ] ] } );
    ( "∀x∀y. x∨y (false)",
      { Hardness.prefix = [ `Forall; `Forall ]; matrix = [ [ lit 0 true; lit 1 true ] ] } );
    ( "∃x∀y. x∨y",
      { Hardness.prefix = [ `Exists; `Forall ]; matrix = [ [ lit 0 true; lit 1 true ] ] } )
  ]

let test_qbf_oracle () =
  let expected = [ true; false; true; false; false; true ] in
  List.iter2
    (fun (name, q) e ->
      Alcotest.(check bool) ("oracle " ^ name) e (Hardness.qbf_eval q))
    qbf_cases expected

let test_qbf_encoding () =
  List.iter
    (fun (name, q) ->
      let expected = Hardness.qbf_eval q in
      let formula = Hardness.qbf_to_jsl q in
      match Jsl_sat.satisfiable formula with
      | Jautomaton.Sat v ->
        Alcotest.(check bool) (name ^ " expected true") true expected;
        Alcotest.(check bool)
          (name ^ " witness validates")
          true (Jsl.validates v formula)
      | Jautomaton.Unsat ->
        Alcotest.(check bool) (name ^ " expected false") false expected
      | Jautomaton.Unknown m -> Alcotest.failf "%s: unknown (%s)" name m)
    qbf_cases

let test_qbf_assignment_trees () =
  (* materialized winning strategies validate; losing ones do not *)
  let q =
    { Hardness.prefix = [ `Forall; `Exists ];
      matrix = [ [ lit 0 true; lit 1 true ]; [ lit 0 false; lit 1 false ] ] }
  in
  let formula = Hardness.qbf_to_jsl q in
  (* winning: y = ¬x *)
  let winning = Hardness.assignment_tree q (fun _ a -> not a.(0)) in
  Alcotest.(check bool) "winning strategy validates" true
    (Jsl.validates winning formula);
  (* losing: y = x *)
  let losing = Hardness.assignment_tree q (fun _ a -> a.(0)) in
  Alcotest.(check bool) "losing strategy fails" false (Jsl.validates losing formula)

(* ------------------------------------------------------------------ *)
(* Soundness fuzzing: brute-force model enumeration vs the solver      *)
(* ------------------------------------------------------------------ *)

(* All documents over a tiny universe: keys {a,b}, strings {"x"},
   numbers {0,1}, fanout ≤ 2, depth ≤ 2.  If any of them satisfies the
   formula, the solver must not answer Unsat (witnesses from the solver
   are already certified by re-validation, so this closes the other
   direction). *)
let small_universe =
  let atoms = [ Value.Num 0; Value.Num 1; Value.Str "x" ] in
  let rec level n =
    if n = 0 then atoms
    else
      let smaller = level (n - 1) in
      let arrays =
        List.concat_map
          (fun v1 -> Value.Arr [ v1 ] :: List.map (fun v2 -> Value.Arr [ v1; v2 ]) smaller)
          smaller
      in
      let objects =
        List.concat_map
          (fun v1 ->
            Value.Obj [ ("a", v1) ] :: Value.Obj [ ("b", v1) ]
            :: List.map (fun v2 -> Value.Obj [ ("a", v1); ("b", v2) ]) smaller)
          smaller
      in
      (atoms @ [ Value.Arr []; Value.Obj [] ]) @ arrays @ objects
  in
  level 2

let tiny_cfg =
  { Jworkload.Gen_formula.default with
    Jworkload.Gen_formula.keys = [ "a"; "b" ];
    strings = [ "x" ];
    max_int = 2;
    allow_nondet = true;
    size = 7 }

let gen_tiny_jsl =
  let open QCheck.Gen in
  let gen st =
    let seed = int_range 0 10_000_000 |> fun g -> g st in
    let rng = Jworkload.Prng.create seed in
    Jworkload.Gen_formula.jsl rng tiny_cfg
  in
  QCheck.make ~print:Jsl.to_string gen

let prop_sat_sound_vs_bruteforce =
  QCheck.Test.make ~name:"solver never refutes a brute-force-satisfiable formula"
    ~count:150 gen_tiny_jsl (fun f ->
      let brute = List.exists (fun d -> Jsl.validates d f) small_universe in
      let budget = Obs.Budget.create ~fuel:100_000 () in
      match Jsl_sat.satisfiable ~budget f with
      | Jautomaton.Sat w ->
        (* certified internally, but double-check here too *)
        Jsl.validates w f
      | Jautomaton.Unsat -> not brute
      | Jautomaton.Unknown _ -> true (* inconclusive is always sound *))

let prop_sat_complete_on_small_models =
  QCheck.Test.make
    ~name:"brute-force-satisfiable formulas are found satisfiable" ~count:100
    gen_tiny_jsl (fun f ->
      let brute = List.exists (fun d -> Jsl.validates d f) small_universe in
      QCheck.assume brute;
      match Jsl_sat.satisfiable f with
      | Jautomaton.Sat _ -> true
      | Jautomaton.Unsat -> false
      | Jautomaton.Unknown _ -> true)

let fuzz_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sat_sound_vs_bruteforce; prop_sat_complete_on_small_models ]

let () =
  Alcotest.run "sat"
    [ ("jsl",
       [ Alcotest.test_case "basic" `Quick test_jsl_sat_basic;
         Alcotest.test_case "patterns" `Quick test_jsl_sat_patterns;
         Alcotest.test_case "unique" `Quick test_jsl_sat_unique;
         Alcotest.test_case "recursive" `Quick test_jsl_rec_sat ]);
      ("3sat",
       [ Alcotest.test_case "fixed instances" `Quick test_3sat_encoding_vs_dpll;
         Alcotest.test_case "random agreement" `Slow test_3sat_random_agreement ]);
      ("qbf",
       [ Alcotest.test_case "oracle" `Quick test_qbf_oracle;
         Alcotest.test_case "encoding agreement" `Slow test_qbf_encoding;
         Alcotest.test_case "assignment trees" `Quick test_qbf_assignment_trees ]);
      ("fuzz", fuzz_tests) ]

