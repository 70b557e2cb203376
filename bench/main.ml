(* Benchmark harness regenerating the paper's evaluation artifacts.

   The paper (PODS'17) evaluates nothing on a testbed: its "results"
   are complexity propositions, constructive translations, and two
   inventory exhibits (Figure 1, Table 1).  Each experiment below
   regenerates the corresponding artifact: coverage matrices for the
   exhibits, measured scaling shapes (fitted log-log slopes) for the
   evaluation propositions, decision-procedure timings on the paper's
   own hardness families for the satisfiability propositions, and size
   growth curves for the translation theorems.  EXPERIMENTS.md records
   paper-claim vs measured-shape for every row printed here.

   The last two, [serve] and [corpus], are not paper artifacts but
   ratio gates on the daemon's plan cache and the corpus index, which
   exit 1 on a wrong verdict or a ratio below its bound; product-path
   speed is measured by perfbench/. *)

open Bechamel
open Toolkit
module Value = Jsont.Value
module Tree = Jsont.Tree
open Jlogic

(* ---- measurement helpers -------------------------------------------------- *)

(* Per-run estimate in nanoseconds via bechamel's OLS.  Every estimate
   is also recorded under [name] in the Obs.Metrics registry, so the
   numbers EXPERIMENTS.md quotes flow through the same instrumentation
   layer the CLI exposes. *)
let measure_ns ?name ?(quota = 0.3) f =
  let test = Test.make ~name:"t" (Staged.stage f) in
  let elt = List.hd (Test.elements test) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let b = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let est = Analyze.one ols Instance.monotonic_clock b in
  let ns =
    match Analyze.OLS.estimates est with
    | Some (t :: _) -> t
    | _ -> Float.nan
  in
  (match name with
  | Some n when Float.is_finite ns -> Obs.Metrics.observe_ns n ns
  | _ -> ());
  ns

(* one-shot wall-clock for long operations (satisfiability searches) *)
let wall_ms ?name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match name with
  | Some n -> Obs.Metrics.observe_ns n (ms *. 1e6)
  | None -> ());
  (result, ms)

(* least-squares slope of log(y) against log(x): the measured exponent *)
let fitted_exponent points =
  let points =
    List.filter (fun (x, y) -> x > 0. && y > 0. && Float.is_finite y) points
  in
  let n = float_of_int (List.length points) in
  if n < 2. then Float.nan
  else begin
    let lx = List.map (fun (x, _) -> log x) points in
    let ly = List.map (fun (_, y) -> log y) points in
    let sum = List.fold_left ( +. ) 0. in
    let sx = sum lx and sy = sum ly in
    let sxx = sum (List.map (fun x -> x *. x) lx) in
    let sxy = sum (List.map2 ( *. ) lx ly) in
    ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))
  end

let header title = Printf.printf "\n=== %s ===\n%!" title
let row fmt = Printf.printf fmt

(* ---- E-Fig1: the running example ----------------------------------------- *)

let figure1 () =
  header "E-Fig1: Figure 1 document in the §3.1 tree model";
  let doc =
    Jsont.Parser.parse_exn
      {|{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}|}
  in
  let t = Tree.of_value doc in
  row "nodes=%d height=%d (paper: 8 JSON values, height 2)\n"
    (Tree.node_count t) (Tree.height t);
  Seq.iter
    (fun n -> row "  %s\n" (Format.asprintf "%a" (Tree.pp_node t) n))
    (Tree.nodes t)

(* ---- E-Tab1: Table 1 keyword coverage ------------------------------------- *)

let table1 () =
  header "E-Tab1: Table 1 keyword coverage (validator + JSL translation agree)";
  let cases = Jworkload.Catalog.keyword_cases in
  row "%-22s %-9s %-9s %-9s\n" "keyword" "validator" "via JSL" "agree";
  let all_ok = ref true in
  List.iter
    (fun (name, schema_text, docs) ->
      let schema = Jschema.Parse.of_string_exn schema_text in
      let jsl = Jschema.To_jsl.document schema in
      let ok_direct =
        List.for_all
          (fun (d, expected) ->
            Jschema.Validate.validates schema (Jsont.Parser.parse_exn d) = expected)
          docs
      in
      let ok_jsl =
        List.for_all
          (fun (d, expected) ->
            Jsl_rec.validates (Jsont.Parser.parse_exn d) jsl = expected)
          docs
      in
      if not (ok_direct && ok_jsl) then all_ok := false;
      row "%-22s %-9s %-9s %-9s\n" name
        (if ok_direct then "PASS" else "FAIL")
        (if ok_jsl then "PASS" else "FAIL")
        (if ok_direct = ok_jsl then "yes" else "NO"))
    cases;
  row "Table 1 coverage: %s\n" (if !all_ok then "COMPLETE" else "INCOMPLETE")

(* ---- E-P1: deterministic JNL evaluation is O(|J|·|ϕ|) --------------------- *)

let doc_sizes = [ 1_000; 4_000; 16_000; 64_000 ]

let det_formula depth =
  (* a deterministic formula exercising keys, indices and EQ(α,A); all
     subformulas pairwise distinct so that subformula memoization does
     not collapse the |ϕ| axis *)
  let keys = Jworkload.Gen_json.default_profile.Jworkload.Gen_json.key_pool in
  let nth_key k = List.nth keys (k mod List.length keys) in
  let rec chain k =
    if k = 0 then Jnl.Eq_doc (Jnl.Self, Value.Num 0)
    else
      Jnl.Or
        ( Jnl.Exists (Jnl.Seq (Jnl.Key (nth_key k), Jnl.Idx (k mod 5))),
          Jnl.And (Jnl.Eq_doc (Jnl.Key (nth_key (k + 3)), Value.Num k), chain (k - 1))
        )
  in
  chain depth

let p1 () =
  header "E-P1 (Prop 1): deterministic JNL evaluation, time vs |J| and |ϕ|";
  row "%-12s %-12s %-14s %-14s\n" "|J| (nodes)" "|phi|" "total (ms)" "ns per |J|";
  let phi = det_formula 8 in
  let points =
    List.map
      (fun n ->
        let rng = Jworkload.Prng.create 1 in
        let doc = Jworkload.Gen_json.sized rng n in
        let tree = Tree.of_value doc in
        let nodes = Tree.node_count tree in
        let ns =
          measure_ns ~name:"bench.p1.jnl_eval" (fun () ->
              let ctx = Jnl_eval.context tree in
              ignore (Jnl_eval.eval ctx phi))
        in
        row "%-12d %-12d %-14.3f %-14.2f\n" nodes (Jnl.size phi) (ns /. 1e6)
          (ns /. float_of_int nodes);
        (float_of_int nodes, ns))
      doc_sizes
  in
  row "fitted exponent in |J|: %.2f   (paper: 1.00 — linear)\n"
    (fitted_exponent points);
  (* formula-size axis *)
  let rng = Jworkload.Prng.create 2 in
  let doc = Jworkload.Gen_json.sized rng 16_000 in
  let tree = Tree.of_value doc in
  let fpoints =
    List.map
      (fun d ->
        let phi = det_formula d in
        let ns =
          measure_ns ~name:"bench.p1.jnl_eval" (fun () ->
              let ctx = Jnl_eval.context tree in
              ignore (Jnl_eval.eval ctx phi))
        in
        (float_of_int (Jnl.size phi), ns))
      [ 4; 8; 16; 32; 64 ]
  in
  row "fitted exponent in |phi|: %.2f  (paper: 1.00 — linear)\n"
    (fitted_exponent fpoints)

(* ---- E-P3: non-determinism and recursion; EQ(α,β) costs ------------------- *)

let p3 () =
  header
    "E-P3 (Prop 3): recursive ND-JNL — linear without EQ(α,β), polynomial with";
  let descend = Jquery.Jsonpath.descendant_or_self in
  let no_eq = Jnl.Exists (Jnl.Seq (descend, Jnl.Key "id")) in
  let with_eq =
    Jnl.Eq_paths
      (Jnl.Seq (descend, Jnl.Key "id"), Jnl.Seq (descend, Jnl.Key "value"))
  in
  row "%-12s %-18s %-18s\n" "|J| (nodes)" "no-EQ (ms)" "with-EQ (ms)";
  let pts_a = ref [] and pts_b = ref [] in
  List.iter
    (fun n ->
      let rng = Jworkload.Prng.create 3 in
      let doc = Jworkload.Gen_json.sized rng n in
      let tree = Tree.of_value doc in
      let nodes = float_of_int (Tree.node_count tree) in
      let ns_a =
        measure_ns ~name:"bench.p3.no_eq" (fun () ->
            let ctx = Jnl_eval.context tree in
            ignore (Jnl_eval.eval ctx no_eq))
      in
      let ns_b =
        measure_ns ~name:"bench.p3.with_eq" ~quota:0.5 (fun () ->
            let ctx = Jnl_eval.context tree in
            ignore (Jnl_eval.eval ctx with_eq))
      in
      pts_a := (nodes, ns_a) :: !pts_a;
      pts_b := (nodes, ns_b) :: !pts_b;
      row "%-12.0f %-18.3f %-18.3f\n" nodes (ns_a /. 1e6) (ns_b /. 1e6))
    [ 1_000; 2_000; 4_000; 8_000; 16_000 ];
  row "fitted exponents: no-EQ %.2f (paper: 1.00), with-EQ %.2f (paper: ≤3, >1)\n"
    (fitted_exponent !pts_a) (fitted_exponent !pts_b)

(* ---- E-P6: JSL evaluation; the cost of Unique ----------------------------- *)

let p6 () =
  header "E-P6 (Prop 6): JSL evaluation — linear without Unique, quadratic with";
  let without =
    Jsl.Box_keys (Rexp.Syntax.all, Jsl.Or (Jsl.Test Jsl.Is_int, Jsl.True))
  in
  (* the paper's Unique algorithm compares all pairs of children
     (O(|J|²)); ours buckets by subtree hash first.  Both are measured:
     the ablation shows where the paper's bound comes from and what the
     hashing buys.  Elements share a large common prefix so that each
     structural comparison costs Θ(element size). *)
  let naive_unique tree node =
    let kids = Tree.arr_children tree node in
    let n = Array.length kids in
    let distinct = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        (* structural comparison without the hash shortcut *)
        if Value.equal (Tree.value_at tree kids.(i)) (Tree.value_at tree kids.(j))
        then distinct := false
      done
    done;
    !distinct
  in
  row "%-14s %-16s %-18s %-20s\n" "array width" "no-Unique (ms)" "Unique (ms)"
    "pairwise (ms)";
  let pts_a = ref [] and pts_b = ref [] and pts_c = ref [] in
  List.iter
    (fun n ->
      (* pairwise distinct elements with a shared prefix *)
      let elem i =
        Value.Obj
          [ ("prefix", Value.Arr (List.init 6 (fun k -> Value.Num k)));
            ("id", Value.Num i) ]
      in
      let doc = Value.Arr (List.init n elem) in
      let tree = Tree.of_value doc in
      let ns_a =
        measure_ns ~name:"bench.p6.no_unique" (fun () ->
            let ctx = Jsl.context tree in
            ignore (Jsl.eval ctx without))
      in
      let ns_b =
        measure_ns ~name:"bench.p6.unique" ~quota:0.5 (fun () ->
            let ctx = Jsl.context tree in
            ignore (Jsl.eval ctx (Jsl.Test Jsl.Unique)))
      in
      let ns_c =
        if n <= 1_000 then
          measure_ns ~name:"bench.p6.pairwise" ~quota:0.5 (fun () ->
              ignore (naive_unique tree Tree.root))
        else Float.nan
      in
      pts_a := (float_of_int n, ns_a) :: !pts_a;
      pts_b := (float_of_int n, ns_b) :: !pts_b;
      if Float.is_finite ns_c then pts_c := (float_of_int n, ns_c) :: !pts_c;
      row "%-14d %-16.3f %-18.3f %-20s\n" n (ns_a /. 1e6) (ns_b /. 1e6)
        (if Float.is_finite ns_c then Printf.sprintf "%.3f" (ns_c /. 1e6)
         else "(skipped)"))
    [ 250; 500; 1_000; 2_000; 4_000 ];
  row
    "fitted exponents: no-Unique %.2f (paper: 1.00), hashed Unique %.2f,\n\
     pairwise Unique %.2f (the paper's O(|J|²) algorithm — quadratic shape)\n"
    (fitted_exponent !pts_a) (fitted_exponent !pts_b) (fitted_exponent !pts_c)

(* ---- E-P9: recursive JSL evaluation is PTIME ------------------------------ *)

let even_paths =
  Jsl_rec.make_exn
    ~defs:
      [ ("g1", Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g2"));
        ( "g2",
          Jsl.And
            ( Jsl.Dia_keys (Rexp.Syntax.all, Jsl.True),
              Jsl.Box_keys (Rexp.Syntax.all, Jsl.Var "g1") ) ) ]
    ~base:(Jsl.Var "g1")

let p9 () =
  header "E-P9 (Prop 9): recursive JSL bottom-up evaluation scales polynomially";
  row "%-12s %-16s %-10s\n" "|J| (nodes)" "eval (ms)" "result";
  let pts = ref [] in
  List.iter
    (fun n ->
      let rng = Jworkload.Prng.create 4 in
      let doc = Jworkload.Gen_json.sized rng n in
      let tree = Tree.of_value doc in
      let nodes = float_of_int (Tree.node_count tree) in
      let result = ref false in
      let ns =
        measure_ns ~name:"bench.p9.rec_eval" (fun () ->
            result := Jsl_rec.holds_at tree even_paths Tree.root)
      in
      pts := (nodes, ns) :: !pts;
      row "%-12.0f %-16.3f %-10b\n" nodes (ns /. 1e6) !result)
    [ 1_000; 4_000; 16_000; 64_000 ];
  row "fitted exponent: %.2f (paper: polynomial; this family evaluates linearly)\n"
    (fitted_exponent !pts);
  (* the PTIME-hardness side: circuit evaluation through the logic *)
  let rng = Jworkload.Prng.create 5 in
  row "%-12s %-16s %-12s\n" "|circuit|" "via JSL (ms)" "agree";
  List.iter
    (fun gates ->
      let n_inputs = 8 in
      let circuit =
        { Hardness.gates =
            Array.init gates (fun j ->
                if j < n_inputs then Hardness.G_input j
                else
                  let a = Jworkload.Prng.int rng j
                  and b = Jworkload.Prng.int rng j in
                  match Jworkload.Prng.int rng 3 with
                  | 0 -> Hardness.G_and (a, b)
                  | 1 -> Hardness.G_or (a, b)
                  | _ -> Hardness.G_not a);
          output = gates - 1;
          n_inputs }
      in
      let delta = Hardness.circuit_to_jsl_rec circuit in
      let a = Array.init n_inputs (fun i -> i mod 2 = 0) in
      let doc = Hardness.circuit_doc a in
      let expected = Hardness.circuit_eval circuit a in
      let got = ref false in
      let ns =
        measure_ns ~name:"bench.p9.circuit" (fun () ->
            got := Jsl_rec.validates doc delta)
      in
      row "%-12d %-16.3f %-12b\n" gates (ns /. 1e6) (!got = expected))
    [ 32; 128; 512 ]

(* ---- E-P2: 3SAT through JNL satisfiability -------------------------------- *)

let p2 () =
  header "E-P2 (Prop 2): JNL satisfiability on the paper's 3SAT instances";
  row "%-8s %-10s %-12s %-14s %-8s\n" "vars" "clauses" "result" "time (ms)" "agree";
  let rng = Jworkload.Prng.create 6 in
  List.iter
    (fun nvars ->
      let nclauses = nvars * 3 in
      let cnf =
        List.init nclauses (fun _ ->
            List.init 3 (fun _ ->
                { Hardness.var = Jworkload.Prng.int rng nvars;
                  positive = Jworkload.Prng.bool rng }))
      in
      let expected = Hardness.dpll ~nvars cnf <> None in
      let formula = Hardness.cnf_to_jnl ~nvars cnf in
      let outcome, ms =
        wall_ms ~name:"bench.p2.sat" (fun () -> Jnl_sat.satisfiable formula)
      in
      let result, agree =
        match outcome with
        | Ok (Jautomaton.Sat _) -> ("sat", expected)
        | Ok Jautomaton.Unsat -> ("unsat", not expected)
        | Ok (Jautomaton.Unknown _) -> ("unknown", false)
        | Error m -> (m, false)
      in
      row "%-8d %-10d %-12s %-14.1f %-8b\n" nvars nclauses result ms agree)
    [ 3; 4; 5; 6; 7; 8; 9 ]

(* ---- E-P7: QBF through JSL satisfiability --------------------------------- *)

let p7 () =
  header "E-P7 (Prop 7): JSL satisfiability on QBF instances (no Unique)";
  row "%-28s %-10s %-12s %-14s %-8s\n" "prefix" "clauses" "result" "time (ms)"
    "agree";
  let lit v p = { Hardness.var = v; positive = p } in
  let instances =
    [ ("Ex. x", { Hardness.prefix = [ `Exists ]; matrix = [ [ lit 0 true ] ] });
      ("All x. x", { Hardness.prefix = [ `Forall ]; matrix = [ [ lit 0 true ] ] });
      ( "All x Ex y. x<>y",
        { Hardness.prefix = [ `Forall; `Exists ];
          matrix = [ [ lit 0 true; lit 1 true ]; [ lit 0 false; lit 1 false ] ] } );
      ( "Ex y All x. x<>y",
        { Hardness.prefix = [ `Exists; `Forall ];
          matrix = [ [ lit 1 true; lit 0 true ]; [ lit 1 false; lit 0 false ] ] } );
      ( "All x Ex y All z. 2 clauses",
        { Hardness.prefix = [ `Forall; `Exists; `Forall ];
          matrix =
            [ [ lit 0 true; lit 1 true; lit 2 true ];
              [ lit 0 false; lit 1 true; lit 2 false ] ] } ) ]
  in
  List.iter
    (fun (name, q) ->
      let expected = Hardness.qbf_eval q in
      let formula = Hardness.qbf_to_jsl q in
      let outcome, ms =
        wall_ms ~name:"bench.p7.sat" (fun () -> Jsl_sat.satisfiable formula)
      in
      let result, agree =
        match outcome with
        | Jautomaton.Sat _ -> ("sat", expected)
        | Jautomaton.Unsat -> ("unsat", not expected)
        | Jautomaton.Unknown _ -> ("unknown", false)
      in
      row "%-28s %-10d %-12s %-14.1f %-8b\n" name (List.length q.Hardness.matrix)
        result ms agree)
    instances;
  (* random sweep with oracle agreement *)
  let rng = Jworkload.Prng.create 10 in
  let agree = ref 0 and unknowns = ref 0 and total = ref 0 and time = ref 0. in
  for _ = 1 to 12 do
    let n = 2 + Jworkload.Prng.int rng 2 in
    let prefix =
      List.init n (fun _ -> if Jworkload.Prng.bool rng then `Forall else `Exists)
    in
    let matrix =
      List.init
        (1 + Jworkload.Prng.int rng 3)
        (fun _ ->
          List.init 2 (fun _ ->
              lit (Jworkload.Prng.int rng n) (Jworkload.Prng.bool rng)))
    in
    let q = { Hardness.prefix; matrix } in
    let expected = Hardness.qbf_eval q in
    let outcome, ms =
      wall_ms ~name:"bench.p7.sat_random" (fun () ->
          Jsl_sat.satisfiable (Hardness.qbf_to_jsl q))
    in
    time := !time +. ms;
    incr total;
    match outcome with
    | Jautomaton.Sat _ -> if expected then incr agree
    | Jautomaton.Unsat -> if not expected then incr agree
    | Jautomaton.Unknown _ -> incr unknowns
  done;
  row "random QBFs (2-3 vars): %d/%d agree with the oracle, %d unknown, %.0f ms total\n"
    !agree !total !unknowns !time

(* ---- E-P4: the undecidability construction -------------------------------- *)

let p4 () =
  header "E-P4 (Prop 4): two-counter machine runs encode into recursive JNL + EQ";
  let machine =
    { Hardness.states =
        [ ("q0", Hardness.Incr (0, "q1"));
          ("q1", Hardness.Incr (0, "q2"));
          ("q2", Hardness.Incr (1, "q3"));
          ("q3", Hardness.If_zero (0, "q5", "q4"));
          ("q4", Hardness.Decr (0, "q3"));
          ("q5", Hardness.If_zero (1, "qf", "q6"));
          ("q6", Hardness.Decr (1, "q5"));
          ("qf", Hardness.Halt) ];
      start = "q0";
      final = "qf" }
  in
  let formula = Hardness.cm_to_jnl machine in
  row "%-14s %-12s %-16s %-12s\n" "run length" "|doc|" "check (ms)" "satisfied";
  match Hardness.cm_run machine ~max_steps:1000 with
  | None -> row "machine did not halt (unexpected)\n"
  | Some configs ->
    let doc = Hardness.cm_run_doc configs in
    let ok = ref false in
    let ns =
      measure_ns ~name:"bench.p4.check" (fun () ->
          ok := Jnl_eval.satisfies doc formula)
    in
    row "%-14d %-12d %-16.3f %-12b\n" (List.length configs) (Value.size doc)
      (ns /. 1e6) !ok;
    let corrupt =
      Hardness.cm_run_doc
        (List.mapi (fun i (q, a, b) -> (q, (if i = 2 then a + 1 else a), b)) configs)
    in
    row "corrupted run rejected: %b (expected true)\n"
      (not (Jnl_eval.satisfies corrupt formula))

(* ---- E-P5 / E-P10: emptiness search --------------------------------------- *)

let p5 () =
  header "E-P5/E-P10 (Props 5, 10): satisfiability search on formula families";
  row "%-36s %-12s %-14s\n" "family" "result" "time (ms)";
  let families =
    [ ( "chain of 4 required keys",
        `Plain
          (Jsl.dia_key "a"
             (Jsl.dia_key "b" (Jsl.dia_key "c" (Jsl.dia_key "d" Jsl.True)))) );
      ( "regex keys + numeric bounds",
        `Plain
          (Jsl.And
             ( Jsl.Dia_keys
                 ( Rexp.Parse.parse_exn "k[0-9]+",
                   Jsl.And (Jsl.Test (Jsl.Min 10), Jsl.Test (Jsl.Max 12)) ),
               Jsl.Box_keys (Rexp.Parse.parse_exn "k[0-9]+", Jsl.Test Jsl.Is_int) )) );
      ( "deep unsat (type clash at depth 3)",
        `Plain
          (Jsl.dia_key "a"
             (Jsl.dia_key "b"
                (Jsl.And
                   ( Jsl.dia_key "c" (Jsl.Test Jsl.Is_arr),
                     Jsl.dia_key "c" (Jsl.Test Jsl.Is_obj) )))) );
      ("recursive even-depth (Prop 10)", `Rec even_paths);
      ( "recursive unsat: infinite descent",
        `Rec
          (Jsl_rec.make_exn
             ~defs:[ ("g", Jsl.dia_key "next" (Jsl.Var "g")) ]
             ~base:(Jsl.Var "g")) ) ]
  in
  List.iter
    (fun (name, f) ->
      let outcome, ms =
        wall_ms ~name:"bench.p5.sat" (fun () ->
            match f with
            | `Plain f -> Jsl_sat.satisfiable f
            | `Rec r -> Jsl_sat.satisfiable_rec r)
      in
      let result =
        match outcome with
        | Jautomaton.Sat _ -> "sat"
        | Jautomaton.Unsat -> "unsat"
        | Jautomaton.Unknown _ -> "unknown"
      in
      row "%-36s %-12s %-14.1f\n" name result ms)
    families

(* ---- E-T2: translation growth --------------------------------------------- *)

let t2 () =
  header
    "E-T2 (Thm 2): translation size growth — JSL→JNL linear, JNL→JSL exponential";
  row "%-8s %-14s %-18s %-18s\n" "n" "|JNL| (alt^n)" "|JSL| translated"
    "back to JNL";
  List.iter
    (fun n ->
      let jnl = Translate.alt_chain n in
      match Translate.jnl_to_jsl jnl with
      | Error m -> row "%-8d error: %s\n" n m
      | Ok jsl ->
        let back =
          match Translate.jsl_to_jnl jsl with
          | Ok j -> string_of_int (Jnl.size j)
          | Error m -> m
        in
        row "%-8d %-14d %-18d %-18s\n" n (Jnl.size jnl) (Jsl.size jsl) back)
    [ 2; 4; 6; 8; 10; 12 ];
  row "(paper: the JNL→JSL direction can be exponential; JSL→JNL is polynomial)\n"

(* ---- E-T1: schema vs logic validation ------------------------------------- *)

let t1 () =
  header "E-T1 (Thm 1): JSON Schema validator vs JSL semantics — agreement and cost";
  let rng = Jworkload.Prng.create 7 in
  let cfg =
    { Jworkload.Gen_formula.default with
      Jworkload.Gen_formula.allow_nondet = true;
      size = 10 }
  in
  let n_formulas = 40 and n_docs = 40 in
  let agree = ref 0 and total = ref 0 in
  let t_schema = ref 0. and t_jsl = ref 0. in
  for _ = 1 to n_formulas do
    let jsl = Jworkload.Gen_formula.jsl rng cfg in
    let schema = Jschema.Of_jsl.schema jsl in
    for _ = 1 to n_docs do
      let doc = Jworkload.Gen_json.sized rng 60 in
      let t0 = Unix.gettimeofday () in
      let a = Jschema.Validate.validates_schema schema doc in
      let t1' = Unix.gettimeofday () in
      let b = Jsl.validates doc jsl in
      let t2' = Unix.gettimeofday () in
      t_schema := !t_schema +. (t1' -. t0);
      t_jsl := !t_jsl +. (t2' -. t1');
      incr total;
      if a = b then incr agree
    done
  done;
  row "formulas=%d docs/formula=%d agreement=%d/%d (paper: equivalence, 100%%)\n"
    n_formulas n_docs !agree !total;
  row "mean validation time: schema %.1f µs, via JSL %.1f µs\n"
    (!t_schema /. float_of_int !total *. 1e6)
    (!t_jsl /. float_of_int !total *. 1e6)

(* ---- E-strm: the §6 streaming conjecture ----------------------------------- *)

(* growth of the major heap's high-water mark (words) while [f] runs,
   measured from a compacted heap *)
let peak_words f =
  Gc.compact ();
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  let r = f () in
  let after = (Gc.quick_stat ()).Gc.top_heap_words in
  (r, after - before)

let strm () =
  header "E-strm (§6): JSL streams through the validation plan in constant memory";
  let all_agree = ref true in
  let phi =
    Jsl.conj
      [ Jsl.Test Jsl.Is_obj;
        Jsl.dia_key "id" (Jsl.Test Jsl.Is_int);
        Jsl.dia_key "name" (Jsl.dia_key "first" (Jsl.Test Jsl.Is_str)) ]
  in
  let phi_plan = Jschema.Validate.Plan.of_jsl phi in
  row "%-12s %-14s %-16s %-16s %-14s\n" "|J| (nodes)" "bytes" "tree eval (ms)"
    "stream (ms)" "heap growth";
  let growth =
    List.map
      (fun n ->
        let rng = Jworkload.Prng.create 8 in
        let payload = Jworkload.Gen_json.sized rng n in
        let doc =
          Value.Obj
            [ ("id", Value.Num 7);
              ("name", Value.Obj [ ("first", Value.Str "John") ]);
              ("payload", payload) ]
        in
        let text = Value.to_string doc in
        (* the heap is measured first, before the timing loops churn it *)
        let verdict, words =
          peak_words (fun () -> Jschema.Validate.Plan.run_stream phi_plan text)
        in
        if verdict <> Jsl.validates doc phi then all_agree := false;
        let ns_tree =
          measure_ns ~name:"bench.strm.tree" (fun () ->
              ignore (Jsl.validates doc phi))
        in
        let ns_stream =
          measure_ns ~name:"bench.strm.stream" (fun () ->
              ignore (Jschema.Validate.Plan.run_stream phi_plan text))
        in
        row "%-12d %-14d %-16.3f %-16.3f %-14d\n" (Value.size doc)
          (String.length text) (ns_tree /. 1e6) (ns_stream /. 1e6) words;
        words)
      [ 1_000; 8_000; 64_000 ]
  in
  (* flat: from the smallest document to the largest (64x the nodes) the
     stream route's heap growth may rise by at most 32k words (256 KiB),
     far below what a tree of the largest would take *)
  let flat = List.for_all (fun w -> w - List.hd growth <= 32_768) growth in
  Obs.Metrics.add "bench.strm.jsl.peak_stream_words"
    (List.nth growth (List.length growth - 1));
  row "(stream heap growth must stay flat as |J| grows — the conjectured \
       bound)%s\n"
    (if flat then "" else "  ** NOT FLAT **");
  if not flat then all_agree := false;

  (* -- schema validation over the token stream (Validate.Plan.run_stream) -- *)
  row "\nschema validation off the token stream (compiled plan):\n";
  let schema = Jschema.Parse.of_string_exn Jworkload.Catalog.catalog_schema in
  let plan = Jschema.Validate.Plan.compile schema in

  (* (a) throughput and three-way agreement on the catalog corpus *)
  let rng = Jworkload.Prng.create 21 in
  let texts =
    Array.init 200 (fun _ -> Value.to_string (Jworkload.Catalog.catalog_doc rng))
  in
  (* a feed lexer delivering [text] in fixed-size chunks, as the
     chunked CLI/network path would *)
  let chunked_lexer text chunk =
    let pos = ref 0 in
    Jsont.Lexer.create_feed
      ~refill:(fun lx ->
        if !pos >= String.length text then Jsont.Lexer.close lx
        else begin
          let n = min chunk (String.length text - !pos) in
          Jsont.Lexer.feed_string lx (String.sub text !pos n);
          pos := !pos + n
        end)
      ()
  in
  Array.iter
    (fun text ->
      let s = Jschema.Validate.Plan.run_stream plan text in
      let t = Jschema.Validate.Plan.run_tree plan (Tree.of_string_exn text) in
      let o = Jschema.Validate.validates schema (Jsont.Parser.parse_exn text) in
      let f =
        Jschema.Validate.Plan.run_lexer plan (chunked_lexer text 7)
      in
      if not (s = t && t = o && o = f) then all_agree := false)
    texts;
  let n = float_of_int (Array.length texts) in
  let ns_vstream =
    measure_ns ~name:"bench.strm.validate_stream" (fun () ->
        Array.iter
          (fun text -> ignore (Jschema.Validate.Plan.run_stream plan text))
          texts)
  in
  let ns_vtree =
    measure_ns ~name:"bench.strm.validate_tree" (fun () ->
        Array.iter
          (fun text ->
            ignore (Jschema.Validate.Plan.run_tree plan (Tree.of_string_exn text)))
          texts)
  in
  row "%-36s %12s %14s\n" "engine" "ns/doc" "docs/sec";
  let ns_vfeed =
    measure_ns ~name:"bench.strm.validate_feed" (fun () ->
        Array.iter
          (fun text ->
            ignore
              (Jschema.Validate.Plan.run_lexer plan (chunked_lexer text 4096)))
          texts)
  in
  row "%-36s %12.0f %14.0f\n" "run_stream (string input)" (ns_vstream /. n)
    (n /. (ns_vstream /. 1e9));
  row "%-36s %12.0f %14.0f\n" "run_lexer (4 KiB feed chunks)" (ns_vfeed /. n)
    (n /. (ns_vfeed /. 1e9));
  row "%-36s %12.0f %14.0f\n" "of_string + run_tree" (ns_vtree /. n)
    (n /. (ns_vtree /. 1e9));

  (* (b) peak memory: flat in document size for the stream path.  The
     instance text is built through a buffer (never as a Value.t) so
     the baseline heap high-water mark sits below what materializing
     the tree costs; the stream is always measured first. *)
  let items_schema =
    Jschema.Parse.of_string_exn
      {|{"type": "array",
         "items": {"type": "object",
                   "required": ["id", "name"],
                   "properties": {"id": {"type": "number"},
                                  "name": {"type": "string", "pattern": "item-[0-9]*"}}}}|}
  in
  let items_plan = Jschema.Validate.Plan.compile items_schema in
  let gen_text n =
    let b = Buffer.create (n * 32) in
    Buffer.add_char b '[';
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf {|{"id":%d,"name":"item-%d"}|} i i)
    done;
    Buffer.add_char b ']';
    Buffer.contents b
  in
  row "\npeak heap growth while validating (words above high-water mark):\n";
  row "%-14s %-14s %-16s %-16s\n" "elements" "bytes" "stream (words)" "tree (words)";
  let last = ref (0, 1) in
  List.iter
    (fun n ->
      let text = gen_text n in
      let s, stream_words =
        peak_words (fun () -> Jschema.Validate.Plan.run_stream items_plan text)
      in
      let t, tree_words =
        peak_words (fun () ->
            Jschema.Validate.Plan.run_tree items_plan (Tree.of_string_exn text))
      in
      if not (s && t) then all_agree := false;
      last := (stream_words, max 1 tree_words);
      row "%-14d %-14d %-16d %-16d\n" n (String.length text) stream_words
        tree_words)
    [ 20_000; 80_000; 320_000 ];
  let stream_words, tree_words = !last in
  Obs.Metrics.add "bench.strm.validate.peak_stream_words" stream_words;
  Obs.Metrics.add "bench.strm.validate.peak_tree_words" tree_words;
  let ratio = float_of_int tree_words /. float_of_int (max 1 stream_words) in
  Obs.Metrics.add "bench.strm.validate.peak_ratio_x10" (int_of_float (ratio *. 10.));
  row
    "largest instance: tree/stream peak ratio %.0fx (target: >= 10x; stream \
     must stay flat)%s\n"
    ratio
    (if ratio >= 10. then "" else "  ** BELOW TARGET **");
  if ratio < 10. then all_agree := false;

  row "\nstream agreement: %s\n" (if !all_agree then "COMPLETE" else "BROKEN");
  if not !all_agree then exit 1


(* ---- E-DLOG: the Proposition 1 apparatus as an ablation -------------------- *)

let dlog () =
  header
    "E-DLOG (Prop 1 proof): JNL via monadic datalog vs the direct evaluator";
  let phi = Jlogic.Jnl.parse_exn {|eq(.name.first, "John") | <.items[0]> & !<.zzz>|} in
  row "%-12s %-16s %-18s %-10s\n" "|J| (nodes)" "direct (ms)" "datalog (ms)" "agree";
  let pts_a = ref [] and pts_b = ref [] in
  List.iter
    (fun n ->
      let rng = Jworkload.Prng.create 9 in
      let doc = Jworkload.Gen_json.sized rng n in
      let tr = Tree.of_value doc in
      let nodes = float_of_int (Tree.node_count tr) in
      let ns_a =
        measure_ns ~name:"bench.dlog.direct" (fun () ->
            let ctx = Jnl_eval.context tr in
            ignore (Jnl_eval.eval ctx phi))
      in
      (* the datalog pipeline: EDB encoding + compilation + evaluation,
         all per run (the proof's end-to-end algorithm) *)
      let ns_b =
        measure_ns ~name:"bench.dlog.datalog" ~quota:0.5 (fun () ->
            ignore (Jdatalog.Compile.eval tr phi))
      in
      let agree =
        match Jdatalog.Compile.eval tr phi with
        | Ok via_datalog ->
          let ctx = Jnl_eval.context tr in
          via_datalog = Bitset.elements (Jnl_eval.eval ctx phi)
        | Error _ -> false
      in
      pts_a := (nodes, ns_a) :: !pts_a;
      pts_b := (nodes, ns_b) :: !pts_b;
      row "%-12.0f %-16.3f %-18.3f %-10b\n" nodes (ns_a /. 1e6) (ns_b /. 1e6) agree)
    [ 1_000; 4_000; 16_000 ];
  row
    "fitted exponents: direct %.2f, datalog %.2f (both linear — the Prop 1\n\
     bound holds for the proof's own algorithm, at a constant-factor cost)\n"
    (fitted_exponent !pts_a) (fitted_exponent !pts_b);
  let program = Jdatalog.Compile.jnl (Jdatalog.Edb.of_tree (Tree.of_value (Jsont.Parser.parse_exn "{}"))) phi in
  row "compiled program: %d rules, monadic=%b, recursive=%b\n"
    (List.length program.Jdatalog.Ast.rules)
    (Jdatalog.Ast.is_monadic program)
    (Jdatalog.Ast.is_recursive program)


(* ---- E-XML: the §3.2 claim — key access under the XML coding --------------- *)

let xml () =
  header "E-XML (§3.2): native key access is O(1); the XML coding scans children";
  row "%-14s %-18s %-18s\n" "object width" "native (ns/get)" "coded (ns/get)";
  let pts_a = ref [] and pts_b = ref [] in
  List.iter
    (fun n ->
      let doc = Jworkload.Gen_json.wide_object n in
      let tree = Tree.of_value doc in
      let coded = Jsont.Xml_coding.encode doc in
      (* hit the last key: the coding's worst case, the native model's
         average case is flat anyway *)
      let key = "k" ^ string_of_int (n - 1) in
      let ns_a =
        measure_ns ~name:"bench.xml.native" (fun () ->
            ignore (Tree.lookup tree Tree.root key))
      in
      let ns_b =
        measure_ns ~name:"bench.xml.coded" (fun () ->
            ignore (Jsont.Xml_coding.lookup_key coded key))
      in
      pts_a := (float_of_int n, ns_a) :: !pts_a;
      pts_b := (float_of_int n, ns_b) :: !pts_b;
      row "%-14d %-18.1f %-18.1f\n" n ns_a ns_b)
    [ 64; 256; 1_024; 4_096 ];
  row
    "fitted exponents: native %.2f (flat), coded %.2f (linear scan) — the\n\
     paper's argument for edge-labelled deterministic trees, quantified\n"
    (fitted_exponent !pts_a) (fitted_exponent !pts_b)


(* ---- E-SIMP: simplifier ablation -------------------------------------------- *)

let simp () =
  header "E-SIMP (ablation): evaluating machine-generated formulas, raw vs simplified";
  let rng = Jworkload.Prng.create 11 in
  let cfg =
    { Jworkload.Gen_formula.default with
      Jworkload.Gen_formula.allow_nondet = true;
      size = 60 }
  in
  let doc = Jworkload.Gen_json.sized rng 8_000 in
  let tree = Tree.of_value doc in
  let raw = List.init 20 (fun _ -> Jworkload.Gen_formula.jsl rng cfg) in
  let simplified = List.map Simplify.jsl raw in
  let size_of fs = List.fold_left (fun acc f -> acc + Jsl.size f) 0 fs in
  let eval_all name fs =
    measure_ns ~name ~quota:0.5 (fun () ->
        List.iter
          (fun f ->
            let ctx = Jsl.context tree in
            ignore (Jsl.eval ctx f))
          fs)
  in
  let ns_raw = eval_all "bench.simp.raw" raw
  and ns_simplified = eval_all "bench.simp.simplified" simplified in
  row "formulas: 20 random JSL, total size %d -> %d after Simplify.jsl\n"
    (size_of raw) (size_of simplified);
  row "evaluation over a %d-node tree: %.2f ms raw, %.2f ms simplified (%.1fx)\n"
    (Tree.node_count tree) (ns_raw /. 1e6) (ns_simplified /. 1e6)
    (ns_raw /. ns_simplified);
  (* agreement sanity *)
  let agree =
    List.for_all2
      (fun a b ->
        let c1 = Jsl.context tree and c2 = Jsl.context tree in
        Bitset.equal (Jsl.eval c1 a) (Jsl.eval c2 b))
      raw simplified
  in
  row "semantics preserved on the benchmark tree: %b\n" agree

(* ---- serve: the daemon's plan cache ---------------------------------------- *)

(* A live [jsonlogic serve] answers the catalog corpus and malformed
   documents with the verdicts of the in-process stream checker the
   CLI uses, and a warm plan cache (VALIDATE by schema-id) must clear
   2x a cold one (FLUSH plus an inline schema per request): the cache
   earning its keep. *)
let serve_exp () =
  header "serve: warm vs cold plan cache (daemon verdicts = CLI verdicts)";
  let schema_text = Jworkload.Catalog.catalog_schema in
  let rng = Jworkload.Prng.create 77 in
  let docs =
    Array.init 160 (fun _ ->
        Value.to_string (Jworkload.Catalog.catalog_doc rng))
  in
  let malformed =
    [| "{"; "{\"sku\":"; "[1,2"; "tru"; "12 34"; ""; "{\"sku\":01}" |]
  in
  let sock = Filename.temp_file "jserve_bench" ".sock" in
  Sys.remove sock;
  let cfg = Jserve.Server.default_config (`Unix sock) in
  let srv = Jserve.Server.start { cfg with Jserve.Server.jobs = 4 } in
  Fun.protect
    ~finally:(fun () ->
      Jserve.Server.stop srv;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let with_client f =
        let c = Jserve.Client.connect (Jserve.Server.endpoint srv) in
        Fun.protect ~finally:(fun () -> Jserve.Client.close c) (fun () -> f c)
      in
      let unwrap = function
        | Ok v -> v
        | Error m -> failwith ("daemon error: " ^ m)
      in
      let plan =
        Jschema.Validate.Plan.compile (Jschema.Parse.of_string_exn schema_text)
      in
      let cli_cell doc =
        match
          Jsont.Parser.wrap (fun () ->
              Jschema.Validate.Plan.run_stream
                ~budget:(Obs.Budget.create ()) plan doc)
        with
        | Ok true -> "valid"
        | Ok false -> "INVALID"
        | Error e -> "error: " ^ Format.asprintf "%a" Jsont.Parser.pp_error e
      in
      let all_agree = ref true in
      with_client (fun c ->
          let id = unwrap (Jserve.Client.put_schema c schema_text) in
          Array.iter
            (fun doc ->
              let daemon = unwrap (Jserve.Client.validate c ~schema_id:id doc) in
              let cli = cli_cell doc in
              if daemon <> cli then begin
                all_agree := false;
                row "DISAGREE daemon=%S cli=%S on %s\n" daemon cli
                  (String.sub doc 0 (min 40 (String.length doc)))
              end)
            (Array.append docs malformed));
      let time_per_request label n f =
        let t0 = Obs.Budget.now_mono () in
        f ();
        let dt = Obs.Budget.now_mono () -. t0 in
        let ns = dt /. float_of_int n *. 1e9 in
        row "%-36s %12.0f ns/request %10.0f req/s\n" label ns
          (float_of_int n /. dt);
        ns
      in
      let cold_docs = Array.sub docs 0 24 in
      let ns_cold =
        with_client (fun c ->
            time_per_request "cold cache (FLUSH + inline schema)"
              (Array.length cold_docs) (fun () ->
                Array.iter
                  (fun doc ->
                    ignore (unwrap (Jserve.Client.flush c));
                    ignore
                      (unwrap
                         (Jserve.Client.validate_inline c ~schema:schema_text
                            doc)))
                  cold_docs))
      in
      let ns_warm =
        with_client (fun c ->
            let id = unwrap (Jserve.Client.put_schema c schema_text) in
            time_per_request "warm cache (VALIDATE by schema-id)"
              (Array.length docs) (fun () ->
                Array.iter
                  (fun doc ->
                    ignore (unwrap (Jserve.Client.validate c ~schema_id:id doc)))
                  docs))
      in
      let speedup = ns_cold /. ns_warm in
      row "warm speedup over cold: %.1fx (gate: >= 2x)\n" speedup;
      row "serve agreement: %s\n" (if !all_agree then "COMPLETE" else "BROKEN");
      if (not !all_agree) || speedup < 2.0 then exit 1)

(* ---- corpus: persistent index vs reparse-every-time ------------------------ *)

(* Build the lib/index postings file over a generated NDJSON corpus
   once, then answer a query set both ways: through the index and by
   reparsing every line per query (what eval --files-from does).  The
   verdicts must be identical on every query, and the index must clear
   10x overall and 50x on the eq class.  Corpus size in MB comes from
   BENCH_CORPUS_MB (default 100). *)
let corpus_exp () =
  header "corpus: persistent corpus index vs reparse baseline";
  let target_mb =
    match Sys.getenv_opt "BENCH_CORPUS_MB" with
    | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 100)
    | None -> 100
  in
  let dir = Filename.temp_file "bench_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let corpus = Filename.concat dir "corpus.ndjson" in
  let idx = Filename.concat dir "corpus.idx" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ corpus; idx ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* one API record in four amid larger heterogeneous shapes: most
         lines are not of the queried record type *)
      let rng = Jworkload.Prng.create 2024 in
      let target = target_mb * 1024 * 1024 in
      let written = ref 0 in
      let ndocs = ref 0 in
      Out_channel.with_open_bin corpus (fun oc ->
          while !written < target do
            let v =
              if !ndocs mod 4 = 0 then
                Jworkload.Gen_json.api_record rng (1 + (!ndocs mod 8))
              else Jworkload.Gen_json.sized rng (64 + (!ndocs mod 257))
            in
            let line = Jsont.Printer.compact v in
            Out_channel.output_string oc line;
            Out_channel.output_char oc '\n';
            written := !written + String.length line + 1;
            incr ndocs
          done);
      let (), build_ms =
        wall_ms (fun () ->
            match Jindex.Writer.build ~jobs:4 ~corpus ~output:idx () with
            | Ok _ -> ()
            | Error m -> failwith ("index build failed: " ^ m))
      in
      row "corpus: %d documents, %.1f MB; index build %.0f ms\n" !ndocs
        (float_of_int !written /. 1e6) build_ms;
      let r =
        match Jindex.Reader.open_ idx with
        | Ok r -> r
        | Error m -> failwith ("index open failed: " ^ m)
      in
      (* the reparse-everything baseline, one verdict per line: the
         per-document computation of eval --files-from *)
      let lines =
        In_channel.with_open_bin corpus In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> Array.of_list
      in
      let baseline phi =
        Par.Batch.map ~jobs:4
          (fun text ->
            Par.Batch.cell (fun () ->
                let tree =
                  Tree.of_string_exn ~budget:(Obs.Budget.create ()) text
                in
                let ctx = Jnl_eval.context ~budget:(Obs.Budget.create ()) tree in
                string_of_bool (Jnl_eval.holds ctx Tree.root phi)))
          lines
      in
      (* three plan classes: [core] existence chains (postings-only),
         [eq] scalar equalities (value postings), [filtered] residual
         predicates (prefilter + selective reparse) *)
      let queries =
        [ ("core", "<.name.first>");
          ("core", "<.orders[0].lines[0].sku>");
          ("core", "<.no_such_key_anywhere>");
          ("core", "<.name.first> & !<.orders[2]>");
          ("eq", {|eq(.name.first, "John")|});
          ("eq", {|eq(.orders[0].lines[0].sku, "SKU-0-0")|});
          ("eq", "eq(.age, 42)");
          ("eq", {|eq(.name.first, "Zebediah")|});
          ("eq", {|eq(.name.first, "John") | eq(.name.first, "Sue")|});
          ("eq", {|<.id> & eq(.name.first, "Sue")|});
          ("filtered", {|<.orders[0:*]?(eq(.status, "shipped"))>|});
          ("filtered", "<.hobbies[-1]>") ]
      in
      let all_agree = ref true in
      let totals = Hashtbl.create 4 in
      let add cls base_ms idx_ms =
        let b, i = Option.value (Hashtbl.find_opt totals cls) ~default:(0., 0.) in
        Hashtbl.replace totals cls (b +. base_ms, i +. idx_ms)
      in
      row "%-48s %-14s %-14s %s\n" "query" "reparse (ms)" "indexed (ms)" "agree";
      List.iter
        (fun (cls, q) ->
          let phi = Jnl.parse_exn q in
          let base, base_ms = wall_ms (fun () -> baseline phi) in
          let verdicts, idx_ms =
            wall_ms (fun () ->
                match Jindex.Query.run ~jobs:4 r phi with
                | Ok v -> Array.map Jindex.Query.verdict_string v
                | Error m -> failwith ("index query failed: " ^ m))
          in
          let agree = verdicts = base in
          if not agree then all_agree := false;
          add cls base_ms idx_ms;
          add "overall" base_ms idx_ms;
          row "%-48s %-14.0f %-14.1f %b\n" q base_ms idx_ms agree)
        queries;
      let speedup cls =
        let b, i = Hashtbl.find totals cls in
        b /. i
      in
      List.iter
        (fun cls -> row "speedup %-10s %.1fx\n" cls (speedup cls))
        [ "core"; "eq"; "filtered"; "overall" ];
      row "(gates: overall >= 10x, eq >= 50x)\n";
      row "corpus agreement: %s\n" (if !all_agree then "COMPLETE" else "BROKEN");
      if (not !all_agree) || speedup "overall" < 10.0 || speedup "eq" < 50.0
      then exit 1)

(* ---- driver ----------------------------------------------------------------- *)

let experiments =
  [ ("fig1", figure1); ("table1", table1); ("p1", p1); ("p2", p2); ("p3", p3);
    ("p4", p4); ("p5", p5); ("p6", p6); ("p7", p7); ("p9", p9); ("t1", t1);
    ("t2", t2); ("stream", strm); ("dlog", dlog); ("xml", xml); ("simp", simp);
    ("serve", serve_exp); ("corpus", corpus_exp) ]

let () =
  Obs.Metrics.set_enabled true;
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2
      end)
    requested;
  List.iter (fun name -> (List.assoc name experiments) ()) requested;
  (* every number above was recorded through lib/obs; the dump doubles
     as a machine-readable summary of the run *)
  print_newline ();
  print_string "== obs metrics ==\n";
  print_string (Obs.Metrics.dump_text ())
