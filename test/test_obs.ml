(* Tests for lib/obs: resource budgets, the metrics registry, and the
   budget threading through the parser, the evaluators, the streaming
   plan executor and the satisfiability search.  Includes the seeded
   differential fuzz between JSL formulas streamed through
   [Validate.Plan.of_jsl] and tree-based Jsl evaluation. *)

open Jlogic
module Value = Jsont.Value
module Parser = Jsont.Parser
module Printer = Jsont.Printer
module Tree = Jsont.Tree
module Plan = Jschema.Validate.Plan

(* a JSL formula streamed through the plan, errors rendered *)
let stream ?budget text f =
  match Parser.wrap (fun () -> Plan.run_stream ?budget (Plan.of_jsl f) text) with
  | Ok ok -> Ok ok
  | Error e -> Error (Plan_oracle.render e)

let contains needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Budget unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let exhausts reason f =
  match f () with
  | _ -> Alcotest.failf "expected Exhausted %s" (Obs.Budget.string_of_reason reason)
  | exception Obs.Budget.Exhausted r ->
    Alcotest.(check string) "reason"
      (Obs.Budget.string_of_reason reason)
      (Obs.Budget.string_of_reason r)

let test_budget_fuel () =
  let b = Obs.Budget.create ~fuel:10 () in
  Obs.Budget.burn b 5;
  Obs.Budget.burn b 5;
  (* allowance exactly spent: the next unit is the one that fails *)
  exhausts Obs.Budget.Fuel (fun () -> Obs.Budget.burn b 1)

let test_budget_depth () =
  let b = Obs.Budget.depth_limited 100 in
  Obs.Budget.check_depth b 0;
  Obs.Budget.check_depth b 100;
  exhausts Obs.Budget.Depth (fun () -> Obs.Budget.check_depth b 101);
  Alcotest.(check int) "max_depth" 100 (Obs.Budget.max_depth b);
  Alcotest.(check int) "default" 10_000 Obs.Budget.default_max_depth

let test_budget_deadline () =
  let b = Obs.Budget.create ~timeout_ms:0 () in
  exhausts Obs.Budget.Deadline (fun () ->
      (* the wall clock is only read every [deadline_stride] burns *)
      for _ = 1 to (2 * Obs.Budget.deadline_stride) + 1 do
        Obs.Budget.burn b 1
      done)

(* Deadlines must be armed from and checked against the one monotonic
   clock behind [now_mono].  The stubbed clock stands in for an NTP
   step: monotonic time advances while the wall clock goes wherever it
   likes.  Against the pre-fix wall-clock implementation this test
   fails — [Unix.gettimeofday] barely moves during the burn loop, so no
   deadline would fire. *)
let test_budget_deadline_monotonic () =
  let now = ref 1000.0 in
  Obs.Budget.set_clock_for_tests (Some (fun () -> !now));
  Fun.protect
    ~finally:(fun () -> Obs.Budget.set_clock_for_tests None)
    (fun () ->
      let b = Obs.Budget.create ~timeout_ms:50 () in
      (* within the window: plenty of burns, no exhaustion *)
      now := 1000.040;
      for _ = 1 to (4 * Obs.Budget.deadline_stride) + 1 do
        Obs.Budget.burn b 1
      done;
      (* 60ms of monotonic time later the deadline must fire within one
         stride of burns, whatever the wall clock did meanwhile *)
      now := 1000.060;
      exhausts Obs.Budget.Deadline (fun () ->
          for _ = 1 to Obs.Budget.deadline_stride + 1 do
            Obs.Budget.burn b 1
          done);
      (* a fresh budget arms from the same stubbed source: deadlines
         and checks can never mix time sources *)
      now := 2000.0;
      let b2 = Obs.Budget.create ~timeout_ms:100 () in
      now := 2000.099;
      for _ = 1 to (2 * Obs.Budget.deadline_stride) + 1 do
        Obs.Budget.burn b2 1
      done;
      now := 2000.101;
      exhausts Obs.Budget.Deadline (fun () ->
          for _ = 1 to Obs.Budget.deadline_stride + 1 do
            Obs.Budget.burn b2 1
          done))

let test_budget_unlimited () =
  Obs.Budget.check_depth Obs.Budget.unlimited 1_000_000;
  for _ = 1 to 10_000 do
    Obs.Budget.burn Obs.Budget.unlimited 1_000
  done;
  Alcotest.(check bool) "describe mentions depth" true
    (String.length (Obs.Budget.describe Obs.Budget.Depth) > 0)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

(* the registry is process-global and alcotest runs everything in one
   process: save and restore enablement around each test *)
let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was)
    f

let test_metrics_counters () =
  with_metrics (fun () ->
      Obs.Metrics.incr "t.a";
      Obs.Metrics.incr "t.a";
      Obs.Metrics.add "t.b" 40;
      Alcotest.(check int) "incr" 2 (Obs.Metrics.counter_value "t.a");
      Alcotest.(check int) "add" 40 (Obs.Metrics.counter_value "t.b");
      Alcotest.(check int) "untouched" 0 (Obs.Metrics.counter_value "t.zzz");
      let dump = Obs.Metrics.dump_text () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("dump_text has " ^ needle) true
            (contains needle dump))
        [ "t.a"; "t.b" ])

let test_metrics_disabled_is_noop () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.incr "t.off";
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value "t.off");
  Alcotest.(check int) "span still runs f" 9
    (Obs.Metrics.span "t.span" (fun () -> 9));
  Obs.Metrics.set_enabled was

let test_metrics_span () =
  with_metrics (fun () ->
      Alcotest.(check int) "span result" 7 (Obs.Metrics.span "t.s" (fun () -> 7));
      (* recorded even when f raises *)
      (try Obs.Metrics.span "t.s" (fun () -> failwith "boom")
       with Failure _ -> 0)
      |> ignore;
      let json = Obs.Metrics.dump_json () in
      Alcotest.(check bool) "json has timing" true (contains "t.s" json);
      Alcotest.(check bool) "json has counters key" true
        (contains "counters" json))

(* one registry for the process: what any domain records, joined or
   exited, is in the reads, and [reset] clears it *)
let test_metrics_domains () =
  with_metrics (fun () ->
      Obs.Metrics.incr "t.d";
      Domain.join
        (Domain.spawn (fun () ->
             Obs.Metrics.add "t.d" 10;
             Obs.Metrics.span "t.ds" ignore));
      Alcotest.(check int) "counts from a joined domain" 11
        (Obs.Metrics.counter_value "t.d");
      Alcotest.(check bool) "its timing in the dump" true
        (contains "t.ds" (Obs.Metrics.dump_text ()));
      (* the next domain takes over the exited one's shard *)
      Domain.join (Domain.spawn (fun () -> Obs.Metrics.incr "t.d"));
      Alcotest.(check int) "after a second domain" 12
        (Obs.Metrics.counter_value "t.d");
      Obs.Metrics.reset ();
      Alcotest.(check int) "reset clears every shard" 0
        (Obs.Metrics.counter_value "t.d"))

(* ------------------------------------------------------------------ *)
(* Deep-nesting regressions: structured errors, not Stack_overflow      *)
(* ------------------------------------------------------------------ *)

let nested_array_text depth =
  let buf = Buffer.create ((2 * depth) + 1) in
  for _ = 1 to depth do Buffer.add_char buf '[' done;
  Buffer.add_char buf '1';
  for _ = 1 to depth do Buffer.add_char buf ']' done;
  Buffer.contents buf

let test_parser_100k_deep () =
  (* at the documented default limit the parser must fail cleanly *)
  (match Parser.parse (nested_array_text 100_000) with
  | Ok _ -> Alcotest.fail "100k-deep input must be rejected by default"
  | Error e ->
    let msg = Format.asprintf "%a" Parser.pp_error e in
    Alcotest.(check bool) ("mentions depth: " ^ msg) true (contains "depth" msg));
  (* just under the default limit it must succeed *)
  match Parser.parse (nested_array_text (Obs.Budget.default_max_depth - 1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "just-under-limit input rejected: %a" Parser.pp_error e

let test_parser_fuel () =
  let b = Obs.Budget.create ~fuel:3 () in
  (match Parser.parse ~budget:b {|{"a":[1,2,3],"b":"x"}|} with
  | Ok _ -> Alcotest.fail "fuel 3 must not parse an 8-value document"
  | Error _ -> ());
  match Parser.parse ~budget:(Obs.Budget.create ~fuel:100 ()) {|{"a":[1,2,3]}|} with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fuel 100 rejected a small document: %a" Parser.pp_error e

let test_stream_100k_deep () =
  (* the stream executor applies the parser's default depth budget *)
  (match stream (nested_array_text 100_000) Jsl.True with
  | Ok _ -> Alcotest.fail "100k-deep input must exhaust the default stream budget"
  | Error m ->
    Alcotest.(check bool) ("mentions depth: " ^ m) true (contains "depth" m));
  (* a generous explicit budget lifts the ceiling: 100k of nesting is
     fine once allowed *)
  match
    stream ~budget:(Obs.Budget.depth_limited 200_000)
      (nested_array_text 100_000) Jsl.True
  with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "True must hold"
  | Error m -> Alcotest.failf "generous budget still failed: %s" m

let deep_value depth =
  let rec build n acc = if n = 0 then acc else build (n - 1) (Value.Arr [ acc ]) in
  build depth (Value.Num 1)

let test_tree_of_value_budget () =
  let v = deep_value 200 in
  (match Tree.of_value ~budget:(Obs.Budget.depth_limited 50) v with
  | _ -> Alcotest.fail "of_value must respect the depth budget"
  | exception Obs.Budget.Exhausted Obs.Budget.Depth -> ());
  ignore (Tree.of_value ~budget:(Obs.Budget.depth_limited 500) v)

let test_jsl_validates_bounded () =
  let v = deep_value 200 in
  let f = Jsl.Test Jsl.Is_arr in
  (match Jsl.validates_bounded ~budget:(Obs.Budget.depth_limited 50) v f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 50 must not validate a 200-deep document");
  (match Jsl.validates_bounded v f with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "Is_arr must hold"
  | Error m -> Alcotest.failf "unbounded default failed: %s" m);
  match
    Jsl.validates_bounded ~budget:(Obs.Budget.create ~fuel:2 ())
      (Parser.parse_exn {|{"a":[1,2,3]}|})
      (Jsl.dia_key "a" (Jsl.Test Jsl.Is_arr))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fuel 2 must exhaust"

let test_jnl_satisfies_bounded () =
  let v = Parser.parse_exn {|{"a":1}|} in
  let f = Jnl.Exists (Jnl.Key "a") in
  (match Jnl_eval.satisfies_bounded v f with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "<a> must hold"
  | Error m -> Alcotest.failf "unbounded default failed: %s" m);
  match
    Jnl_eval.satisfies_bounded ~budget:(Obs.Budget.create ~fuel:1 ())
      (deep_value 50) f
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fuel 1 must exhaust"

let test_sat_budget_unknown () =
  let phi = Jsl.dia_key "a" (Jsl.Test Jsl.Is_int) in
  match Jsl_sat.satisfiable ~budget:(Obs.Budget.create ~fuel:1 ()) phi with
  | Jautomaton.Unknown _ -> ()
  | Jautomaton.Sat _ -> Alcotest.fail "fuel 1 cannot certify Sat"
  | Jautomaton.Unsat -> Alcotest.fail "fuel 1 cannot certify Unsat"

(* ------------------------------------------------------------------ *)
(* Construct counters flow through evaluation                           *)
(* ------------------------------------------------------------------ *)

let test_construct_counters () =
  with_metrics (fun () ->
      let v = Parser.parse_exn {|{"a":[1,2,1]}|} in
      ignore (Jsl.validates v (Jsl.dia_key "a" (Jsl.Test Jsl.Unique)));
      Alcotest.(check bool) "jsl.test.unique counted" true
        (Obs.Metrics.counter_value "jsl.test.unique" > 0);
      ignore
        (Jnl_eval.satisfies v
           (Jnl.Eq_doc (Jnl.Self, Parser.parse_exn {|{"a":[1,2,1]}|})));
      Alcotest.(check bool) "jnl.eq_doc counted" true
        (Obs.Metrics.counter_value "jnl.eq_doc" > 0);
      ignore (stream "[1,2]" Jsl.True);
      Alcotest.(check bool) "validate.stream.runs counted" true
        (Obs.Metrics.counter_value "validate.stream.runs" > 0);
      (* one jnl.index.hit per labelled step, also when an eq target
         without value postings is materialized first *)
      List.iter
        (fun (q, hits) ->
          Obs.Metrics.reset ();
          let ctx = Jnl_eval.context (Tree.of_string_exn {|{"a":1}|}) in
          ignore (Jnl_eval.holds ctx Tree.root (Jnl.parse_exn q));
          Alcotest.(check int) ("jnl.index.hit on " ^ q) hits
            (Obs.Metrics.counter_value "jnl.index.hit"))
        [ ("<.a>", 1); ("eq(.a, 1)", 1); ("eq(.a.b, 1)", 2) ])

(* ------------------------------------------------------------------ *)
(* Differential fuzz: streaming vs tree evaluation                      *)
(* ------------------------------------------------------------------ *)

let test_differential_stream_vs_tree () =
  let rng = Jworkload.Prng.create 2026 in
  let cfg = Jworkload.Gen_formula.default in
  for i = 1 to 500 do
    let doc = Jworkload.Gen_json.sized rng (1 + Jworkload.Prng.int rng 120) in
    let f = Jworkload.Gen_formula.jsl rng cfg in
    let text = Printer.compact doc in
    Plan_oracle.check ~what:(Printf.sprintf "pair %d" i)
      ~expected:(Jsl.validates doc f) (Plan.of_jsl f) text
      ~cuts:[ Jworkload.Prng.int rng (String.length text + 1) ]
  done

(* ------------------------------------------------------------------ *)
(* Skip-path differential: skipped and decoded regions must agree      *)
(* byte-for-byte on errors and budgets                                 *)
(* ------------------------------------------------------------------ *)

let stream_error ?budget text f =
  match stream ?budget text f with
  | Ok ok -> Alcotest.failf "expected an error, got %b on %s" ok text
  | Error m -> m

(* a malformed or over-budget construct must produce the same error
   whether the enclosing value is evaluated or fast-forwarded *)
let check_skip_eval_error_parity ~msg text f_skip f_eval =
  let skipped = stream_error text f_skip and decoded = stream_error text f_eval in
  Alcotest.(check string) (msg ^ ": skip/eval error parity") decoded skipped

let test_skip_rejects_malformed () =
  (* pre-fix, the blind token-counting skipper accepted [:] and every
     other bracket-balanced garbage inside unconstrained subtrees *)
  check_skip_eval_error_parity ~msg:"[:]" {|{"b":[:],"a":1}|}
    (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int))
    (Jsl.dia_key "b" (Jsl.Test Jsl.Is_arr));
  check_skip_eval_error_parity ~msg:"missing colon" {|{"b":{"k" 1},"a":1}|}
    (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int))
    (Jsl.dia_key "b" (Jsl.Test Jsl.Is_obj));
  check_skip_eval_error_parity ~msg:"literal outside the model"
    {|{"b":[null],"a":1}|}
    (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int))
    (Jsl.dia_key "b" (Jsl.Test Jsl.Is_arr))

let test_skip_rejects_duplicate_keys () =
  (* pre-fix, duplicate keys in skipped regions went undetected *)
  let text = {|{"x":{"d":1,"d":2},"a":1}|} in
  let m = stream_error text (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int)) in
  Alcotest.(check bool) ("mentions the key: " ^ m) true (contains {|"d"|} m);
  check_skip_eval_error_parity ~msg:"duplicate key" text
    (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int))
    (Jsl.dia_key "x" (Jsl.Test Jsl.Is_obj))

let test_skip_checks_depth () =
  (* pre-fix, nesting inside skipped subtrees never met the depth
     ceiling: a 200-deep pad passed where the decoded path exhausted *)
  let pad = nested_array_text 200 in
  let text = Printf.sprintf {|{"pad":%s,"a":1}|} pad in
  let tight () = Obs.Budget.depth_limited 50 in
  let m = stream_error ~budget:(tight ()) text (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int)) in
  Alcotest.(check bool) ("mentions depth: " ^ m) true (contains "depth" m);
  Alcotest.(check string) "depth error parity"
    (stream_error ~budget:(tight ()) text (Jsl.dia_key "pad" (Jsl.Test Jsl.Is_arr)))
    m

let test_skip_string_escapes () =
  (* escape sequences and surrogate pairs are validated without being
     decoded on the skip path; acceptance and errors match the decoded
     path exactly *)
  let good =
    [ {|"a\nb\tc"|};
      "\"\\u0041\\u00e9\"" (* BMP escapes *);
      "\"\\ud83d\\ude00\\ud834\\udd1e\"" (* surrogate pairs *);
      {|"😀 literal utf-8 ☃"|};
      {|"\\\" \/ \b\f\r"|} ]
  in
  List.iter
    (fun pad ->
      let text = Printf.sprintf {|{"pad":%s,"a":1}|} pad in
      match stream text (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int)) with
      | Ok true -> ()
      | Ok false -> Alcotest.failf "doc with pad %s must validate" pad
      | Error m -> Alcotest.failf "pad %s skipped with error %s" pad m)
    good;
  let bad =
    [ {|"\ud83d x"|} (* unpaired high surrogate *); {|"\q"|} (* bad escape *);
      {|"\u12"|} (* truncated escape *); {|"unterminated|} ]
  in
  List.iter
    (fun pad ->
      let text = Printf.sprintf {|{"pad":%s,"a":1}|} pad in
      check_skip_eval_error_parity ~msg:pad text
        (Jsl.dia_key "a" (Jsl.Test Jsl.Is_int))
        (Jsl.dia_key "pad" (Jsl.Test Jsl.Is_str)))
    bad

let test_differential_skip_padding () =
  (* the stream-vs-tree differential, with every document wrapped next
     to an escape-heavy skipped pad: the pad must never change the
     verdict nor trip the skipper *)
  let rng = Jworkload.Prng.create 77 in
  let cfg = Jworkload.Gen_formula.default in
  let pads =
    [| {|"a\nb\tc"|}; {|"A ☃"|}; {|"😀"|};
       {|"\\\" \/ \b\f\r"|}; {|[[[[["☃"]]]]]|};
       {|{"deep":{"deeper":["𝄞",{"k":"nul-free"}]}}|} |]
  in
  for i = 1 to 300 do
    let doc = Jworkload.Gen_json.sized rng (1 + Jworkload.Prng.int rng 60) in
    let f = Jworkload.Gen_formula.jsl rng cfg in
    let pad = pads.(i mod Array.length pads) in
    let text = Printf.sprintf {|{"pad":%s,"doc":%s}|} pad (Printer.compact doc) in
    Plan_oracle.check ~what:(Printf.sprintf "pair %d" i)
      ~expected:(Jsl.validates doc f)
      (Plan.of_jsl (Jsl.dia_key "doc" f))
      text
      ~cuts:[ Jworkload.Prng.int rng (String.length text + 1) ]
  done

let test_differential_budget_exhaustion () =
  (* when the budget is too small, both sides must report a structured
     error — neither may crash or silently succeed *)
  let doc = deep_value 200 in
  let text = Printer.compact doc in
  let f = Jsl.Test Jsl.Is_arr in
  let tight () = Obs.Budget.depth_limited 50 in
  (match stream ~budget:(tight ()) text f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stream must exhaust at depth 50");
  match Jsl.validates_bounded ~budget:(tight ()) doc f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tree evaluation must exhaust at depth 50"

let () =
  Alcotest.run "obs"
    [ ("budget",
       [ Alcotest.test_case "fuel" `Quick test_budget_fuel;
         Alcotest.test_case "depth" `Quick test_budget_depth;
         Alcotest.test_case "deadline" `Quick test_budget_deadline;
         Alcotest.test_case "deadline is monotonic" `Quick
           test_budget_deadline_monotonic;
         Alcotest.test_case "unlimited" `Quick test_budget_unlimited ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_metrics_counters;
         Alcotest.test_case "disabled is no-op" `Quick test_metrics_disabled_is_noop;
         Alcotest.test_case "span" `Quick test_metrics_span;
         Alcotest.test_case "counts from every domain" `Quick
           test_metrics_domains ]);
      ("deep inputs",
       [ Alcotest.test_case "parser at 100k" `Quick test_parser_100k_deep;
         Alcotest.test_case "parser fuel" `Quick test_parser_fuel;
         Alcotest.test_case "stream at 100k" `Quick test_stream_100k_deep;
         Alcotest.test_case "tree of_value" `Quick test_tree_of_value_budget ]);
      ("bounded evaluation",
       [ Alcotest.test_case "jsl validates_bounded" `Quick test_jsl_validates_bounded;
         Alcotest.test_case "jnl satisfies_bounded" `Quick test_jnl_satisfies_bounded;
         Alcotest.test_case "sat returns Unknown" `Quick test_sat_budget_unknown;
         Alcotest.test_case "construct counters" `Quick test_construct_counters ]);
      ("skip differential",
       [ Alcotest.test_case "rejects malformed skipped regions" `Quick
           test_skip_rejects_malformed;
         Alcotest.test_case "rejects duplicate keys while skipping" `Quick
           test_skip_rejects_duplicate_keys;
         Alcotest.test_case "depth ceiling inside skipped regions" `Quick
           test_skip_checks_depth;
         Alcotest.test_case "escapes and surrogate pairs" `Quick
           test_skip_string_escapes;
         Alcotest.test_case "stream vs tree with skipped pads, 300 pairs"
           `Quick test_differential_skip_padding ]);
      ("differential",
       [ Alcotest.test_case "stream vs tree, 500 pairs" `Quick
           test_differential_stream_vs_tree;
         Alcotest.test_case "budget exhaustion agreement" `Quick
           test_differential_budget_exhaustion ]) ]
