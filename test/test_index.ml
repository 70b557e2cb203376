(* Tests for the persistent corpus index: differential agreement with
   the reparse-everything baseline over a PRNG corpus and 327 queries
   (with the reparse count pinned, and every route of the root demand
   taken) and over arrays that pass the position cap, line numbering
   against [Par.Batch.lines], the per-query fuel rule and a recurring
   key's chain answered from the roots, eq answered from a postings
   list of more than 65 536 entries, byte-identical builds across lane
   counts, fault injection (bit-flips, truncations, forged header
   counts, corrupt or unsorted postings, older format versions), two
   domains building one reader's root table, stale-corpus rejection,
   and the tree label-index single-build regression. *)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_path suffix =
  let p = Filename.temp_file "jindex_test" suffix in
  p

(* ---- corpus + query set ---------------------------------------------------- *)

(* One NDJSON corpus shared by most tests: PRNG documents (API records
   and generic shapes, then both mixed as in the benchmark's corpus),
   scalar and array lines, a blank line and a malformed line. *)
let corpus_text =
  lazy
    (let rng = Jworkload.Prng.create 42 in
     let buf = Buffer.create (1 lsl 16) in
     let addv v =
       Buffer.add_string buf (Jsont.Printer.compact v);
       Buffer.add_char buf '\n'
     in
     for i = 1 to 40 do
       addv (Jworkload.Gen_json.api_record rng (1 + (i mod 5)))
     done;
     Buffer.add_string buf "\n";
     Buffer.add_string buf "{\"broken\": \n";
     Buffer.add_string buf "[1,2,3]\n";
     Buffer.add_string buf "\"just a string\"\n";
     Buffer.add_string buf "7\n";
     Buffer.add_string buf "{}\n";
     for i = 1 to 40 do
       addv (Jworkload.Gen_json.sized rng (20 + (7 * i)))
     done;
     (* shaped like the benchmark's corpus: an API record in four amid
        documents whose dozen keys recur at every depth *)
     for i = 0 to 39 do
       addv
         (if i mod 4 = 0 then Jworkload.Gen_json.api_record rng (1 + (i mod 8))
          else Jworkload.Gen_json.sized rng (64 + (i * 37 mod 257)))
     done;
     (* unterminated last line *)
     Buffer.add_string buf "{\"tail\":[{\"sku\":\"z9\"}]}";
     Buffer.contents buf)

let handcrafted_queries =
  [ "true";
    "<.name.first>";
    "<.name>";
    "<.orders[0]>";
    "<.orders[0].lines[0].sku>";
    "<.no_such_key_anywhere>";
    "!<.name.first>";
    "<.name.first> & <.orders[0]>";
    "<.name.first> | <.tail>";
    "!(<.name> & !<.age>)";
    "eq(.name.first, \"John\")";
    "eq(.name.first, \"John\") | eq(.name.first, \"Sue\")";
    "<.orders[0:*]?(eq(.status, \"shipped\"))>";
    "<.hobbies[-1]>";
    "<(.~/.*/)*.sku>";
    "eq(.name.first, .name.last)";
    "<.tail[0].sku>";
    (* eq pushdown: numbers, the root path, absent values, negation and
       conjunction around a value-postings seed *)
    "eq(.orders[0].order_id, 1000)";
    "eq(.age, 42)";
    "eq(eps, 7)";
    "eq(eps, \"just a string\")";
    "eq(.name.first, \"NoSuchNameXYZ\")";
    "!eq(.name.first, \"John\")";
    "eq(.name.first, \"John\") & <.orders[0]>";
    "<.id> & eq(.name.first, \"Sue\")";
    "<.name.first> & !<.orders[2]>";
    "eq(.orders[0].lines[0].sku, \"SKU-0-0\")" ]

(* Generated ranges start at 0..2; shift a third of them left so
   negative bounds (both, or the lower one only) get exercised too. *)
let rec shift_ranges k (p : Jlogic.Jnl.path) : Jlogic.Jnl.path =
  let f = shift_form k and p' = shift_ranges k in
  match p with
  | Jlogic.Jnl.Range (i, j) when k mod 3 = 1 ->
    Jlogic.Jnl.Range (i - 3, Option.map (fun j -> j - 3) j)
  | Jlogic.Jnl.Range (i, j) when k mod 3 = 2 -> Jlogic.Jnl.Range (i - 3, j)
  | Jlogic.Jnl.Seq (a, b) -> Jlogic.Jnl.Seq (p' a, p' b)
  | Jlogic.Jnl.Alt (a, b) -> Jlogic.Jnl.Alt (p' a, p' b)
  | Jlogic.Jnl.Star a -> Jlogic.Jnl.Star (p' a)
  | Jlogic.Jnl.Test g -> Jlogic.Jnl.Test (f g)
  | _ -> p

and shift_form k (f : Jlogic.Jnl.form) : Jlogic.Jnl.form =
  let p = shift_ranges k and f' = shift_form k in
  match f with
  | Jlogic.Jnl.True -> f
  | Jlogic.Jnl.Not g -> Jlogic.Jnl.Not (f' g)
  | Jlogic.Jnl.And (a, b) -> Jlogic.Jnl.And (f' a, f' b)
  | Jlogic.Jnl.Or (a, b) -> Jlogic.Jnl.Or (f' a, f' b)
  | Jlogic.Jnl.Exists a -> Jlogic.Jnl.Exists (p a)
  | Jlogic.Jnl.Eq_doc (a, v) -> Jlogic.Jnl.Eq_doc (p a, v)
  | Jlogic.Jnl.Eq_paths (a, b) -> Jlogic.Jnl.Eq_paths (p a, p b)

(* 300 seeded formulas over the whole language: Keys, Range, Star,
   Alt, negative Idx, Test, scalar and object eq, EQ(α,β) *)
let generated =
  lazy
    (let rng = Jworkload.Prng.create 7 in
     let cfg =
       { Jworkload.Gen_formula.default with
         size = 8; allow_nondet = true; allow_star = true;
         allow_eq_paths = true }
     in
     List.init 300 (fun k -> shift_form k (Jworkload.Gen_formula.jnl rng cfg)))

let query_set () =
  List.map Jlogic.Jnl.parse_exn handcrafted_queries @ Lazy.force generated

(* the per-line baseline: the cell [eval --files-from] prints per file *)
let baseline_verdict ?(budget = fun () -> Obs.Budget.create ()) phi text =
  fst (Jindex.Query.doc_cell ~fresh_budget:budget phi (fun () -> text))

let corpus_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, line) -> String.trim line <> "")

let build_corpus_index () =
  let corpus = temp_path ".ndjson" in
  let idx = temp_path ".idx" in
  write_file corpus (Lazy.force corpus_text);
  (match Jindex.Writer.build ~jobs:2 ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  (corpus, idx)

let open_exn ?verify_body idx =
  match Jindex.Reader.open_ ?verify_body idx with
  | Ok r -> r
  | Error m -> Alcotest.fail ("open failed: " ^ m)

(* ---- differential: index-backed vs reparse-everything ---------------------- *)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      Obs.Metrics.reset ();
      f ())

(* only EQ(α,β) and eq against an object or array need the documents *)
let rec needs_reparse (f : Jlogic.Jnl.form) =
  match f with
  | Jlogic.Jnl.True -> false
  | Jlogic.Jnl.Not g -> needs_reparse g
  | Jlogic.Jnl.And (a, b) | Jlogic.Jnl.Or (a, b) ->
    needs_reparse a || needs_reparse b
  | Jlogic.Jnl.Exists p -> path_needs_reparse p
  | Jlogic.Jnl.Eq_doc (_, (Jsont.Value.Obj _ | Jsont.Value.Arr _)) -> true
  | Jlogic.Jnl.Eq_doc (p, _) -> path_needs_reparse p
  | Jlogic.Jnl.Eq_paths _ -> true

and path_needs_reparse (p : Jlogic.Jnl.path) =
  match p with
  | Jlogic.Jnl.Test f -> needs_reparse f
  | Jlogic.Jnl.Seq (a, b) | Jlogic.Jnl.Alt (a, b) ->
    path_needs_reparse a || path_needs_reparse b
  | Jlogic.Jnl.Star a -> path_needs_reparse a
  | _ -> false

(* Every query answers alike by every root route of the oracle — the
   index, the per-line cell, the per-node checker and the root demand,
   and for the JSONPath spellings their selection; the ones postings
   decide reparse the malformed lines on a fresh reader and nothing at
   all once the reader holds their cells. *)
let test_differential () =
  let _corpus, idx = build_corpus_index () in
  let r = open_exn idx in
  let lines = corpus_lines (Lazy.force corpus_text) in
  Alcotest.(check int) "every non-blank line indexed" (List.length lines)
    (Jindex.Reader.ndocs r);
  let malformed =
    List.length
      (List.filter (fun (_, l) -> Result.is_error (Jsont.Tree.of_string l)) lines)
  in
  let fresh = ref true in
  let routes = [ "jnl.demand.roots"; "jnl.demand.walks"; "jnl.demand.capped" ] in
  let taken = Hashtbl.create 3 in
  (* the index's route, its reparses and demand routes counted *)
  let query r phi =
    with_metrics (fun () ->
        let verdicts = Jindex.Query.run ~jobs:2 r phi in
        List.iter
          (fun c -> if Obs.Metrics.counter_value c > 0 then Hashtbl.replace taken c ())
          routes;
        let q = Jlogic.Jnl.to_string phi in
        let reparsed = Obs.Metrics.counter_value "index.query.reparsed" in
        if not (needs_reparse phi) then
          if !fresh then
            Alcotest.(check int)
              ("first query reparses the malformed lines: " ^ q)
              malformed reparsed
          else Alcotest.(check int) ("later queries reparse none: " ^ q) 0 reparsed;
        fresh := false;
        verdicts)
  in
  Oracle.Root.agree ~what:"index vs reparse"
    (Oracle.Root.routes ~reader:r ~query (Lazy.force corpus_text))
    (List.map (fun phi -> Oracle.Root.Jnl phi) (query_set ())
    @ List.map
        (fun p -> Oracle.Root.Jsonpath p)
        [ "$.name.first"; "$.orders[0].lines[0].sku"; "$..sku"; "$.hobbies[-1]";
          "$.orders[*].status"; "$[1]" ]);
  (* the root postings, the demand's children and the walks abandoned
     at the backward walk's size all answered some query *)
  List.iter
    (fun c -> Alcotest.(check bool) ("some query took " ^ c) true (Hashtbl.mem taken c))
    routes

(* Arrays of 1 030 and 2 100 elements, one holding a nested array of
   1 030 past position 1 024: steps at, below and past the position cap
   (those past it hop siblings from the last listed position), under a
   key, nested in an array and at the root, answer like the baseline
   from postings alone, at one lane and at two. *)
let test_differential_past_cap () =
  let nats n f = String.concat "," (List.init n f) in
  let num = string_of_int in
  let wide = Printf.sprintf "[%s]" (nats 1030 num) in
  let text =
    String.concat "\n"
      [ Printf.sprintf "{\"a\":%s}" wide;
        Printf.sprintf "{\"a\":[%s]}"
          (nats 2100 (fun i -> if i = 1100 then wide else num i));
        Printf.sprintf "[%s,[%s]]" wide
          (nats 2100 (fun i -> if i = 1500 then wide else num i));
        Printf.sprintf "{\"a\":[%s],\"b\":[[%s]]}" (nats 1024 num)
          (nats 1025 num);
        "{\"a\":[1,2,3]}"; "[]" ]
  in
  let corpus = temp_path ".ndjson" in
  write_file corpus text;
  let steps =
    [ "[1023]"; "[1024]"; "[1025]"; "[2099]"; "[-1]"; "[-1030]";
      "[1020:1030]"; "[1024:*]" ]
  in
  let queries =
    List.concat_map
      (fun s ->
        [ "<.a" ^ s ^ ">"; "!<.a" ^ s ^ ">"; "<.b[0]" ^ s ^ ">";
          "<.a[1100]" ^ s ^ ">"; "<[1]" ^ s ^ ">"; "<[1][1500]" ^ s ^ ">" ])
      steps
    @ [ "eq(.a[1025], 1025)"; "eq(.a[2099], 2099)"; "eq(.a[1100][1029], 1029)";
        "eq([1][1500][-1], 1029)"; "<.a[1024:*]?(eq(eps, 2000))>" ]
  in
  let lines = corpus_lines text in
  List.iter
    (fun jobs ->
      let idx = temp_path ".idx" in
      (match Jindex.Writer.build ~jobs ~corpus ~output:idx () with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("build failed: " ^ m));
      let r = open_exn idx in
      Alcotest.(check int) "positions listed up to the cap" Jindex.Layout.pos_cap
        (Jindex.Reader.npos r);
      List.iter
        (fun q ->
          let phi = Jlogic.Jnl.parse_exn q in
          let expect = List.map (fun (_, line) -> baseline_verdict phi line) lines in
          with_metrics (fun () ->
              match Jindex.Query.run ~jobs r phi with
              | Error m -> Alcotest.failf "jobs %d, %s: %s" jobs q m
              | Ok verdicts ->
                Alcotest.(check (list string))
                  (Printf.sprintf "jobs %d, agreement on %s" jobs q)
                  expect
                  (Array.to_list (Array.map Jindex.Query.verdict_string verdicts));
                Alcotest.(check int)
                  (Printf.sprintf "jobs %d, %s reparses nothing" jobs q)
                  0
                  (Obs.Metrics.counter_value "index.query.reparsed")))
        queries)
    [ 1; 2 ]

(* The index numbers and slices its documents exactly as
   [Par.Batch.lines] reads them: over the corpus (blank and malformed
   lines included in the count) and over the line reader's own cases —
   CRLF and whitespace-only lines, leading blank lines, a lone '\r',
   unterminated last lines. *)
let test_linenos () =
  List.iteri
    (fun case text ->
      let corpus = temp_path ".ndjson" and idx = temp_path ".idx" in
      write_file corpus text;
      (match Jindex.Writer.build ~corpus ~output:idx () with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "case %d: build failed: %s" case m);
      let lines = ref [] in
      In_channel.with_open_bin corpus
        (Par.Batch.lines ~chunk_bytes:65536 Fun.id (fun lineno line ->
             lines := (lineno, line) :: !lines));
      let r = open_exn idx in
      Alcotest.(check int)
        (Printf.sprintf "case %d: one document per line" case)
        (List.length !lines) (Jindex.Reader.ndocs r);
      List.iteri
        (fun d (lineno, line) ->
          Alcotest.(check (pair int string))
            (Printf.sprintf "case %d: doc %d line and bytes" case d)
            (lineno, line)
            ( Jindex.Reader.doc_lineno r d,
              String.sub text (Jindex.Reader.doc_off r d)
                (Jindex.Reader.doc_len r d) ))
        (List.rev !lines))
    (Lazy.force corpus_text :: Ndjson_cases.lines_cases)

(* The least fuel a query needs on an index over [text]: per-query
   fuel must follow the postings a formula touches, so padding the
   corpus with documents sharing none of its keys leaves it unchanged. *)
let min_fuel text phi =
  let corpus = temp_path ".ndjson" in
  let idx = temp_path ".idx" in
  write_file corpus text;
  (match Jindex.Writer.build ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let r = open_exn idx in
  let ok fuel =
    Result.is_ok
      (Jindex.Query.run
         ~fresh_budget:(fun () -> Obs.Budget.create ~fuel ())
         r phi)
  in
  let rec search lo hi = (* ok hi, not (ok lo) *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if ok mid then search lo mid else search mid hi
  in
  search 0 1_000_000

let test_fuel_rule () =
  let text = Lazy.force corpus_text in
  let padded =
    text ^ "\n"
    ^ String.concat "\n"
        (List.init 200 (fun i -> Printf.sprintf "{\"pad%d\":\"x\",\"zz\":%d}" i i))
  in
  List.iter
    (fun q ->
      let phi = Jlogic.Jnl.parse_exn q in
      let fuel = min_fuel text phi in
      Alcotest.(check bool) ("answers within the fuel cap: " ^ q) true
        (fuel < 1_000_000);
      Alcotest.(check int) ("same fuel after padding: " ^ q) fuel
        (min_fuel padded phi))
    [ "<.name.first>"; "<.orders[0:*]?(eq(.status, \"shipped\"))>"; "<.name>";
      "<.tags.next>"; "!<.orders[1]>"; "<.id> & eq(.name.last, \"Doe\")" ]

(* A chain through a key that recurs at every depth is answered from
   the roots down: its least fuel stays below what walking that key's
   postings alone would burn. *)
let test_cheap_route () =
  let corpus, idx = build_corpus_index () in
  let r = open_exn idx in
  let next =
    match Jindex.Reader.key_id r "next" with
    | Some k -> Jindex.Reader.length (Jindex.Reader.key_postings r k)
    | None -> Alcotest.fail "no next key"
  in
  let fuel = min_fuel (read_file corpus) (Jlogic.Jnl.parse_exn "<.tags.next>") in
  Alcotest.(check bool)
    (Printf.sprintf "fuel %d below the %d postings of next" fuel next)
    true (fuel < next)

(* ---- eq pushdown ------------------------------------------------------------- *)

(* an eq over a rooted core path is answered postings-only: value
   postings seed it, nothing but the error-flagged lines reparses *)
let test_eq_zero_reparse () =
  let _corpus, idx = build_corpus_index () in
  let r = open_exn idx in
  let errs = ref 0 in
  for d = 0 to Jindex.Reader.ndocs r - 1 do
    if Jindex.Reader.doc_err r d then incr errs
  done;
  with_metrics (fun () ->
      (match Jindex.Query.run r (Jlogic.Jnl.parse_exn "eq(.name.first, \"John\")") with
      | Error m -> Alcotest.fail m
      | Ok verdicts ->
        Alcotest.(check bool) "some matches" true
          (Array.exists (fun v -> v = Jindex.Query.True) verdicts));
      Alcotest.(check int) "postings-only plan" 1
        (Obs.Metrics.counter_value "index.query.postings_only");
      Alcotest.(check bool) "value postings seeded the query" true
        (Obs.Metrics.counter_value "index.query.value_hits" > 0);
      Alcotest.(check int) "only parse-error lines reparsed" !errs
        (Obs.Metrics.counter_value "index.query.reparsed"))

(* A (label, scalar) pair more common than any former value cap (65 536
   entries) keeps its postings list: eq on it is answered from postings
   alone, every entry read, nothing reparsed. *)
let test_eq_common_pair () =
  let n = 70_000 in
  let text =
    String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf "{\"s\":\"%s\",\"i\":%d}"
             (if i mod 50 = 0 then "y" else "x")
             i))
  in
  let corpus = temp_path ".ndjson" and idx = temp_path ".idx" in
  write_file corpus text;
  (match Jindex.Writer.build ~jobs:2 ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let r = open_exn idx in
  let lines = corpus_lines text in
  let xs = n - (n / 50) in
  Alcotest.(check bool) "the pair passes 65 536 entries" true (xs > 65_536);
  List.iter
    (fun (q, hits) ->
      let phi = Jlogic.Jnl.parse_exn q in
      let expect = List.map (fun (_, line) -> baseline_verdict phi line) lines in
      with_metrics (fun () ->
          (match Jindex.Query.run ~jobs:2 r phi with
          | Error m -> Alcotest.fail (q ^ ": " ^ m)
          | Ok verdicts ->
            Alcotest.(check (list string)) ("agreement on " ^ q) expect
              (Array.to_list (Array.map Jindex.Query.verdict_string verdicts)));
          Alcotest.(check (list int))
            ("postings-only, reparsed, value hits: " ^ q)
            [ 1; 0; hits ]
            (List.map Obs.Metrics.counter_value
               [ "index.query.postings_only"; "index.query.reparsed";
                 "index.query.value_hits" ])))
    [ ("eq(.s, \"x\")", xs); ("!eq(.s, \"x\")", xs);
      ("eq(.s, \"y\")", n - xs) ]

(* number canonicalization at the index boundary: every notation that
   parses to the same natural shares one value id, and mixed-notation
   corpora agree with the baseline (under the default strict mode,
   non-canonical notations are parse-error lines in BOTH paths) *)
let test_number_canonicalization () =
  (* the narrowing contract the value table relies on *)
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (text ^ " narrows to 1")
        true
        (Jsont.Parser.parse_exn ~mode:`Lenient text = Jsont.Value.Num 1))
    [ "1"; "1.0"; "1e0"; "10e-1"; "0.1e1" ];
  let corpus = temp_path ".ndjson" in
  let idx = temp_path ".idx" in
  let text = "1\n1.0\n1e0\n7\n1\n" in
  write_file corpus text;
  (match Jindex.Writer.build ~corpus ~output:idx () with
  | Ok s ->
    (* strict mode: 1.0 and 1e0 are parse-error lines; the two plain 1s
       dedupe to one id, so the table holds exactly {1, 7} *)
    Alcotest.(check int) "two distinct values" 2 s.Jindex.Writer.values;
    Alcotest.(check int) "parse errors flagged" 2 s.Jindex.Writer.errors
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let r = open_exn idx in
  let lines = corpus_lines text in
  List.iter
    (fun q ->
      let phi = Jlogic.Jnl.parse_exn q in
      let expect = List.map (fun (_, line) -> baseline_verdict phi line) lines in
      match Jindex.Query.run r phi with
      | Error m -> Alcotest.fail (q ^ ": " ^ m)
      | Ok verdicts ->
        Alcotest.(check (list string)) ("agreement on " ^ q) expect
          (Array.to_list (Array.map Jindex.Query.verdict_string verdicts)))
    [ "eq(eps, 1)"; "eq(eps, 7)"; "eq(eps, 2)"; "true" ]

(* the planner reorders a conjunction whose cheap side is written last,
   without changing any verdict *)
let test_planner_reorders () =
  let _corpus, idx = build_corpus_index () in
  let r = open_exn idx in
  let q = "<.id> & eq(.name.first, \"Sue\")" in
  let phi = Jlogic.Jnl.parse_exn q in
  let lines = corpus_lines (Lazy.force corpus_text) in
  let expect = List.map (fun (_, line) -> baseline_verdict phi line) lines in
  with_metrics (fun () ->
      (match Jindex.Query.run r phi with
      | Error m -> Alcotest.fail m
      | Ok verdicts ->
        Alcotest.(check (list string)) ("agreement on " ^ q) expect
          (Array.to_list (Array.map Jindex.Query.verdict_string verdicts)));
      Alcotest.(check bool) "planner changed the evaluation order" true
        (Obs.Metrics.counter_value "index.plan.reorders" > 0))

(* ---- parity with Tree.of_string ------------------------------------------- *)

(* [lit] in place of the first number [line] holds as a value. *)
let splice lit line =
  let n = String.length line in
  let rec find i =
    if i >= n then None
    else if
      i > 0
      && (match line.[i] with '0' .. '9' -> true | _ -> false)
      && match line.[i - 1] with ':' | ',' | '[' -> true | _ -> false
    then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
    let j = ref i in
    while !j < n && match line.[!j] with '0' .. '9' -> true | _ -> false do
      incr j
    done;
    String.sub line 0 i ^ lit ^ String.sub line !j (n - !j)

(* The shared corpus, then generated lines and their mutants:
   truncations, duplicate keys (escaped spellings too), literals outside
   the model, deep nesting, escapes, blank and CRLF lines, an array past
   the position cap and an unterminated last line. *)
let parity_text =
  lazy
    (let rng = Jworkload.Prng.create 2028 in
     let gen i =
       Jsont.Printer.compact
         (if i mod 3 = 0 then Jworkload.Gen_json.api_record rng (i mod 4)
          else Jworkload.Gen_json.sized rng (8 + Jworkload.Prng.int rng 60))
     in
     let nest d o c = String.make d o ^ "1" ^ String.make d c in
     let lines =
       List.concat
         [ List.init 24 gen;
           List.init 8 (fun i ->
               let l = gen i in
               String.sub l 0 (Jworkload.Prng.int rng (String.length l)));
           List.map (fun lit -> splice lit (gen 1)) [ "null"; "true"; "-1"; "1.5" ];
           [ "{\"a\":1,\"a\":2}"; "{\"a\":{\"b\":1,\"b\":2}}";
             "{\"a\":{\"a\":1},\"a\":2}"; "{\"a\":1,\"\\u0061\":2}";
             "{\"k\\u00e9y\":\"v\\nw\",\"k\\u00e9y2\":\"\xc3\xa9\",\"kéy\":0}";
             "[4611686018427387903,0,\"\",{}]"; "null"; "-0"; "[]"; "\"s\"" ];
           List.init 8 (fun d -> nest (d + 1) '[' ']');
           List.init 8 (fun d ->
               String.concat "" (List.init (d + 1) (fun _ -> "{\"a\":"))
               ^ "1" ^ String.make (d + 1) '}');
           [ ""; "  "; "\t"; gen 5 ^ "\r"; "\r";
             Printf.sprintf "{\"m\":[%s]}"
               (String.concat "," (List.init 1100 string_of_int)) ] ]
     in
     String.concat "\n" (Lazy.force corpus_text :: lines) ^ "\n" ^ gen 9)

(* Builds at jobs 1, 2 and 4, without a budget and under depth and fuel
   limits: the same bytes at every lane count; a line is flagged exactly
   when [Tree.of_string] under the same budget rejects it; every parsed
   line's nodes read back as its tree's — parent, label, last-element
   bit, subtree size — and every (label, value) postings list holds
   exactly its tree leaves, in node-id order. *)
let test_tree_parity () =
  let text = Lazy.force parity_text in
  let corpus = temp_path ".ndjson" in
  write_file corpus text;
  let lines = Array.of_list (corpus_lines text) in
  let budgets =
    ("no budget", fun () -> Obs.Budget.create ())
    :: List.init 6 (fun d ->
           ( Printf.sprintf "max_depth %d" (d + 1),
             fun () -> Obs.Budget.create ~max_depth:(d + 1) () ))
    @ List.map
        (fun f ->
          (Printf.sprintf "fuel %d" f, fun () -> Obs.Budget.create ~fuel:f ()))
        [ 0; 1; 2; 3; 4; 5; 7; 10; 15; 25; 40; 70; 130; 260 ]
  in
  List.iter
    (fun (what, fresh_budget) ->
      let build jobs =
        let idx = temp_path ".idx" in
        (match Jindex.Writer.build ~jobs ~fresh_budget ~corpus ~output:idx () with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "%s, jobs %d: build failed: %s" what jobs m);
        idx
      in
      let idx = build 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs 1 vs %d byte-identical" what jobs)
            true
            (read_file idx = read_file (build jobs)))
        [ 1; 2; 4 ];
      let r = open_exn idx in
      Alcotest.(check int) (what ^ ": documents") (Array.length lines)
        (Jindex.Reader.ndocs r);
      let pairs = Hashtbl.create 64 in
      Array.iteri
        (fun d (lineno, line) ->
          let at = Printf.sprintf "%s, line %d" what lineno in
          Alcotest.(check int) (at ^ ": lineno") lineno (Jindex.Reader.doc_lineno r d);
          match Jsont.Tree.of_string ~budget:(fresh_budget ()) line with
          | Error _ ->
            Alcotest.(check bool) (at ^ ": flagged") true (Jindex.Reader.doc_err r d)
          | Ok t ->
            Alcotest.(check bool) (at ^ ": flagged") false (Jindex.Reader.doc_err r d);
            let base = Jindex.Reader.doc_node_base r d in
            for i = 0 to Jsont.Tree.node_count t - 1 do
              let g = base + i in
              let p = Jsont.Tree.parent_id t i in
              let label =
                match Jsont.Tree.edge_from_parent t i with
                | Jsont.Tree.Root -> Jindex.Layout.label_root
                | Jsont.Tree.Key w ->
                  Jindex.Layout.label_key (Option.get (Jindex.Reader.key_id r w))
                | Jsont.Tree.Pos k -> Jindex.Layout.label_pos k
              in
              let last =
                match Jsont.Tree.edge_from_parent t i with
                | Jsont.Tree.Pos k -> k = Jsont.Tree.arity t p - 1
                | _ -> false
              in
              Alcotest.(check (list int))
                (Printf.sprintf "%s: node %d parent, label, last, size" at i)
                [ (if p < 0 then -1 else base + p); label; Bool.to_int last;
                  Jsont.Tree.size t i ]
                [ Jindex.Reader.node_parent r g; Jindex.Reader.node_label r g;
                  Bool.to_int (Jindex.Reader.node_last r g);
                  Jindex.Reader.node_size r g ];
              let value =
                match Jsont.Tree.kind t i with
                | Jsont.Tree.Kstr s -> Some (Jindex.Layout.encode_str s)
                | Jsont.Tree.Kint n -> Some (Jindex.Layout.encode_num n)
                | Jsont.Tree.Kobj | Jsont.Tree.Karr -> None
              in
              Option.iter
                (fun v ->
                  let key = (label, Option.get (Jindex.Reader.value_id r v)) in
                  Hashtbl.replace pairs key
                    (g :: Option.value ~default:[] (Hashtbl.find_opt pairs key)))
                value
            done)
        lines;
      Alcotest.(check int) (what ^ ": pairs") (Hashtbl.length pairs)
        (Jindex.Reader.npairs r);
      Hashtbl.iter
        (fun (label, vid) nodes ->
          let post =
            Jindex.Reader.pair_postings r
              (Option.get (Jindex.Reader.pair_lookup r ~label ~vid))
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: postings of (%d, %d)" what label vid)
            (List.rev nodes)
            (List.init (Jindex.Reader.length post) (Jindex.Reader.posting r post)))
        pairs)
    budgets

(* ---- pinned bytes ------------------------------------------------------------ *)

(* perfbench's corpus-query mix, smaller: an API record in four amid
   generated documents, every 500th line from the 8th truncated *)
let pin_mix_text =
  lazy
    (let rng = Jworkload.Prng.create ((4242 * 6151) + 3) in
     let buf = Buffer.create (1 lsl 17) in
     let n = ref 0 in
     while Buffer.length buf < 96_000 do
       let line =
         Jsont.Printer.compact
           (if !n mod 4 = 0 then Jworkload.Gen_json.api_record rng (1 + (!n mod 8))
            else Jworkload.Gen_json.sized rng (64 + (!n mod 257)))
       in
       Buffer.add_string buf
         (if !n mod 500 = 7 then String.sub line 0 (String.length line / 2) else line);
       Buffer.add_char buf '\n';
       incr n
     done;
     Buffer.contents buf)

(* scripts/ci.sh's index corpus: records, arrays and scalars with a
   malformed line in 29, nested arrays, an array past the position cap
   and an unterminated last line *)
let pin_ci_text =
  lazy
    (let buf = Buffer.create 8192 in
     let add fmt = Printf.bprintf buf fmt in
     for i = 1 to 120 do
       if i mod 29 = 0 then add "{\"name\":{\"first\":\n"
       else if i mod 4 = 0 then
         add
           "{\"name\":{\"first\":\"John\",\"last\":\"Doe\"},\"orders\":[{\"status\":\"shipped\",\"lines\":[{\"sku\":\"SKU-%d\",\"qty\":%d}]}]}\n"
           i i
       else if i mod 4 = 1 then
         add "{\"id\":%d,\"tags\":[\"a\",\"b\"],\"meta\":{\"next\":\"none\"}}\n" i
       else if i mod 4 = 2 then add "[%d,{\"value\":%d},\"end\"]\n" i i
       else add "\"scalar-%d\"\n" i
     done;
     add "{\"m\":[[0,[1,2,3,4]],[5],6,7]}\n";
     add "{\"m\":[[[1,[2,3]],4],[5,[6,[7,8,9]]],[],10]}\n";
     add "[[1,[2,[3,4,5]]],[6],{\"m\":[8,9]},[10,11,12,13]]\n";
     add "{\"m\":[%s]}\n" (String.concat "," (List.init 1101 string_of_int));
     add "{\"tail\":{\"name\":{\"first\":\"Sue\"}}}";
     Buffer.contents buf)

(* The index of [text] up to its corpus-path section: that offset, and
   the MD5 of those bytes with the three header words that depend on the
   path (file size, body and header checksums) zeroed. *)
let pinned_prefix text =
  let corpus = temp_path ".ndjson" and idx = temp_path ".idx" in
  write_file corpus text;
  (match Jindex.Writer.build ~jobs:2 ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let b = Bytes.of_string (read_file idx) in
  let cpath = Jindex.Layout.get_u64 b Jindex.Layout.Field.corpus_path in
  Alcotest.(check int) "file size: prefix and path section"
    (cpath + Jindex.Layout.pad8 (4 + String.length corpus))
    (Bytes.length b);
  List.iter
    (fun f -> Bytes.fill b f 8 '\000')
    Jindex.Layout.Field.[ file_size; body_checksum; header_checksum ];
  (cpath, Digest.to_hex (Digest.subbytes b 0 cpath))

(* The constants were computed with the writer that built a Tree.t per
   line (the format is JLIXIDX5 throughout): the build that replaced it
   must reproduce its bytes. *)
let test_pinned_bytes () =
  List.iter
    (fun (what, text, size, md5) ->
      Alcotest.(check (pair int string)) what (size, md5)
        (pinned_prefix (Lazy.force text)))
    [ ("corpus-query mix", pin_mix_text, 277072,
       "3e3a571f47dcc53abeb6dfc4f01e29d3");
      ("ci.sh index corpus", pin_ci_text, 82856,
       "c075d90e86d3198bc2a741800c986b81") ]

(* ---- fault injection -------------------------------------------------------- *)

(* every single-byte flip anywhere in the file must be rejected at
   open: header flips by the header checksum, body flips by the body
   checksum, checksum-field flips by the mismatch they create *)
let test_bit_flips () =
  let _corpus, idx = build_corpus_index () in
  let original = read_file idx in
  let mutant = temp_path ".idx" in
  let n = String.length original in
  let step = max 1 (n / 256) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string original in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x41));
    write_file mutant (Bytes.to_string b);
    (match Jindex.Reader.open_ mutant with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail
        (Printf.sprintf "byte flip at %d accepted by open_" !pos));
    pos := !pos + step
  done

let test_truncations () =
  let _corpus, idx = build_corpus_index () in
  let original = read_file idx in
  let mutant = temp_path ".idx" in
  let n = String.length original in
  List.iter
    (fun len ->
      write_file mutant (String.sub original 0 len);
      match Jindex.Reader.open_ mutant with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail
          (Printf.sprintf "truncation to %d bytes accepted by open_" len))
    [ 0; 8; Jindex.Layout.header_bytes - 1; Jindex.Layout.header_bytes;
      n / 2; n - 1 ]

(* forge header fields and re-sign the header checksum: the structural
   validation behind the checksum must still reject the file *)
let test_forged_counts () =
  let _corpus, idx = build_corpus_index () in
  let original = read_file idx in
  let mutant = temp_path ".idx" in
  let forge field v =
    let b = Bytes.of_string original in
    Jindex.Layout.set_u64 b field v;
    let sum =
      Jindex.Layout.checksum_bytes Jindex.Layout.checksum_init b 0
        Jindex.Layout.Field.header_checksum
    in
    Jindex.Layout.set_u64 b Jindex.Layout.Field.header_checksum sum;
    write_file mutant (Bytes.to_string b);
    match Jindex.Reader.open_ ~verify_body:false mutant with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "forged header accepted by open_"
  in
  (* oversized counts, far beyond any plausible file *)
  forge Jindex.Layout.Field.ndocs (1 lsl 50);
  forge Jindex.Layout.Field.nnodes (1 lsl 50);
  forge Jindex.Layout.Field.key_entries (1 lsl 50);
  (* sane-looking counts whose sections overrun the actual file *)
  forge Jindex.Layout.Field.nnodes 1_000_000;
  forge Jindex.Layout.Field.ndocs 1_000_000;
  (* misaligned / out-of-file section offsets *)
  forge Jindex.Layout.Field.key_post 3;
  forge Jindex.Layout.Field.parents (1 lsl 40);
  (* v2 value sections: oversized counts and bad offsets *)
  forge Jindex.Layout.Field.nvals (1 lsl 50);
  forge Jindex.Layout.Field.npairs (1 lsl 50);
  forge Jindex.Layout.Field.val_entries (1 lsl 50);
  forge Jindex.Layout.Field.valtab_blob 3;
  forge Jindex.Layout.Field.val_post (1 lsl 40)

(* a pair-table entry naming a value id beyond the table is structural
   corruption the open-time sweep catches even without the body
   checksum *)
let test_forged_pair_table () =
  let _corpus, idx = build_corpus_index () in
  let b = Bytes.of_string (read_file idx) in
  let npairs = Jindex.Layout.get_u64 b Jindex.Layout.Field.npairs in
  Alcotest.(check bool) "corpus has value pairs" true (npairs > 0);
  let o_pair = Jindex.Layout.get_u64 b Jindex.Layout.Field.pair_table in
  Jindex.Layout.set_u32 b (o_pair + 4) 0x0FFFFFFF;
  let mutant = temp_path ".idx" in
  write_file mutant (Bytes.to_string b);
  match Jindex.Reader.open_ ~verify_body:false mutant with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range pair value id accepted"

(* a file stamped with an older version gets the versioned refusal, not
   a checksum complaint or a crash — the version check runs before the
   header checksum because older headers place every field elsewhere *)
let test_old_version_refusal () =
  let _corpus, idx = build_corpus_index () in
  List.iter
    (fun v ->
      let b = Bytes.of_string (read_file idx) in
      Bytes.set b 7 (Char.chr (Char.code '0' + v));
      Jindex.Layout.set_u32 b Jindex.Layout.Field.version v;
      let mutant = temp_path ".idx" in
      write_file mutant (Bytes.to_string b);
      match Jindex.Reader.open_ mutant with
      | Error m ->
        Alcotest.(check bool)
          ("names the version: " ^ m)
          true
          (let has_sub sub =
             let n = String.length sub and h = String.length m in
             let rec go i =
               i + n <= h && (String.sub m i n = sub || go (i + 1))
             in
             go 0
           in
           has_sub (Printf.sprintf "unsupported index version %d" v))
      | Ok _ -> Alcotest.fail (Printf.sprintf "v%d magic accepted" v))
    [ 1; 2; 3; 4 ];
  (* a non-index file is still the plain bad-magic refusal *)
  let junk = temp_path ".idx" in
  write_file junk (String.make 512 'x');
  match Jindex.Reader.open_ junk with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk file accepted"

(* corrupt value postings under --no-verify: an out-of-range node id in
   a value list must surface as a query error, never an exception *)
let test_corrupt_value_postings_no_verify () =
  let _corpus, idx = build_corpus_index () in
  let b = Bytes.of_string (read_file idx) in
  let o_vpost = Jindex.Layout.get_u64 b Jindex.Layout.Field.val_post in
  let entries = Jindex.Layout.get_u64 b Jindex.Layout.Field.val_entries in
  Alcotest.(check bool) "corpus has value postings" true (entries > 0);
  for i = 0 to entries - 1 do
    Jindex.Layout.set_u32 b (o_vpost + (i * Jindex.Layout.posting_bytes))
      0x7FFFFFF
  done;
  let mutant = temp_path ".idx" in
  write_file mutant (Bytes.to_string b);
  let r = open_exn ~verify_body:false mutant in
  match Jindex.Query.run r (Jlogic.Jnl.parse_exn "eq(.name.first, \"John\")") with
  | Error m ->
    Alcotest.(check bool) ("error is positioned: " ^ m) true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "corrupt value postings produced verdicts"

(* corrupt postings under --no-verify: a node id pointing past the
   corpus must surface as a query error, never an exception *)
let test_corrupt_postings_no_verify () =
  let _corpus, idx = build_corpus_index () in
  let original = read_file idx in
  let b = Bytes.of_string original in
  let o_kpost = Jindex.Layout.get_u64 b Jindex.Layout.Field.key_post in
  let entries = Jindex.Layout.get_u64 b Jindex.Layout.Field.key_entries in
  Alcotest.(check bool) "corpus has key postings" true (entries > 0);
  (* smash every entry so whichever list a query seeds from trips the
     bounds check *)
  for i = 0 to entries - 1 do
    Jindex.Layout.set_u32 b (o_kpost + (i * Jindex.Layout.posting_bytes))
      0x7FFFFFF
  done;
  let mutant = temp_path ".idx" in
  write_file mutant (Bytes.to_string b);
  let r = open_exn ~verify_body:false mutant in
  match Jindex.Query.run r (Jlogic.Jnl.parse_exn "<.name>") with
  | Error m ->
    Alcotest.(check bool)
      ("error is positioned: " ^ m)
      true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "corrupt postings produced verdicts"

(* postings out of order under --no-verify: the root table, read off a
   key's postings, must refuse them with a positioned query error *)
let test_unsorted_postings_no_verify () =
  let _corpus, idx = build_corpus_index () in
  let name =
    let r = open_exn idx in
    match Jindex.Reader.key_id r "name" with
    | Some k -> k
    | None -> Alcotest.fail "no name key"
  in
  let b = Bytes.of_string (read_file idx) in
  let pidx = Jindex.Layout.get_u64 b Jindex.Layout.Field.key_pidx in
  let post = Jindex.Layout.get_u64 b Jindex.Layout.Field.key_post in
  let start = Jindex.Layout.get_u64 b (pidx + (name * 8)) in
  let at j = post + ((start + j) * Jindex.Layout.posting_bytes) in
  let first = Jindex.Layout.get_u32 b (at 0) in
  Jindex.Layout.set_u32 b (at 0) (Jindex.Layout.get_u32 b (at 1));
  Jindex.Layout.set_u32 b (at 1) first;
  let mutant = temp_path ".idx" in
  write_file mutant (Bytes.to_string b);
  match Jindex.Query.run (open_exn ~verify_body:false mutant) (Jlogic.Jnl.parse_exn "<.name>") with
  | Error m ->
    Alcotest.(check bool) ("error is positioned: " ^ m) true
      (String.starts_with ~prefix:(mutant ^ ": key postings entry ") m)
  | Ok _ -> Alcotest.fail "unsorted postings produced verdicts"

(* forged subtree sizes under --no-verify: a size of 0, or one reaching
   past the last node, must surface as a positioned query error on a
   query that hops siblings, never an exception or a verdict *)
let test_forged_sizes_no_verify () =
  let _corpus, idx = build_corpus_index () in
  let original = read_file idx in
  let nnodes = Jindex.Layout.get_u64 (Bytes.of_string original)
      Jindex.Layout.Field.nnodes in
  let o_siz = Jindex.Layout.get_u64 (Bytes.of_string original)
      Jindex.Layout.Field.sizes in
  List.iter
    (fun (what, size) ->
      let b = Bytes.of_string original in
      for g = 0 to nnodes - 1 do
        Jindex.Layout.set_u32 b (o_siz + (g * 4)) (size g)
      done;
      let mutant = temp_path ".idx" in
      write_file mutant (Bytes.to_string b);
      let r = open_exn ~verify_body:false mutant in
      List.iter
        (fun q ->
          match Jindex.Query.run r (Jlogic.Jnl.parse_exn q) with
          | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s is a positioned error: %s" what q m)
              true
              (String.starts_with ~prefix:(mutant ^ ": subtree size ") m)
          | Ok _ ->
            Alcotest.fail
              (Printf.sprintf "%s: %s produced verdicts" what q)
          | exception e ->
            Alcotest.fail
              (Printf.sprintf "%s: %s raised %s" what q (Printexc.to_string e)))
        [ "<.orders[1]>"; "<.orders[-2]>" ])
    [ ("size 0", fun _ -> 0);
      ("size past the last node", fun g -> nnodes - g + 1) ]

(* ---- error-line cells ---------------------------------------------------------- *)

(* An index built under depth 3 flags the deep lines besides the
   malformed one.  Under a default budget the deep lines parse, so
   their verdicts follow the formula and must never come from the
   reader's slot; the malformed line's parse error may. *)
let shallow_index () =
  let corpus = temp_path ".ndjson" in
  let idx = temp_path ".idx" in
  write_file corpus (Lazy.force corpus_text);
  (match
     Jindex.Writer.build
       ~fresh_budget:(fun () -> Obs.Budget.create ~max_depth:3 ())
       ~corpus ~output:idx ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let r = open_exn idx in
  let flagged = ref 0 in
  for d = 0 to Jindex.Reader.ndocs r - 1 do
    if Jindex.Reader.doc_err r d then incr flagged
  done;
  let malformed =
    List.length
      (List.filter
         (fun (_, l) -> Result.is_error (Jsont.Tree.of_string l))
         (corpus_lines (Lazy.force corpus_text)))
  in
  Alcotest.(check bool) "deep lines flagged besides the malformed" true
    (malformed > 0 && !flagged > malformed);
  (r, !flagged, malformed)

(* [q] on [r] under [budget] answers like the per-line baseline under
   the same budget; the result is how many documents it reparsed *)
let query_reparsed ?budget r q =
  let phi = Jlogic.Jnl.parse_exn q in
  let expect =
    List.map
      (fun (_, line) -> baseline_verdict ?budget phi line)
      (corpus_lines (Lazy.force corpus_text))
  in
  with_metrics (fun () ->
      match Jindex.Query.run ?fresh_budget:budget r phi with
      | Error m -> Alcotest.fail (q ^ ": " ^ m)
      | Ok verdicts ->
        Alcotest.(check (list string)) ("agreement on " ^ q) expect
          (Array.to_list (Array.map Jindex.Query.verdict_string verdicts));
        Obs.Metrics.counter_value "index.query.reparsed")

let test_slot_formula_dependent () =
  let r, flagged, malformed = shallow_index () in
  let q = "<.orders[0].lines[0].sku>" in
  Alcotest.(check int) "first query reparses every flagged line" flagged
    (query_reparsed r q);
  Alcotest.(check int) "the negation reparses the deep lines again"
    (flagged - malformed)
    (query_reparsed r ("!" ^ q));
  Alcotest.(check int) "and so does a third formula" (flagged - malformed)
    (query_reparsed r "eq(.name.first, \"John\")");
  (* a flagged line that parses but whose evaluation runs out of fuel
     failed for the formula, not for the line *)
  let budget () = Obs.Budget.create ~fuel:1_000 () in
  let heavy = String.make 20 '!' ^ "<.name>" in
  Alcotest.(check bool) "some flagged line parses, then runs out of fuel" true
    (List.exists
       (fun (_, l) ->
         Result.is_error
           (Jsont.Tree.of_string ~budget:(Obs.Budget.create ~max_depth:3 ()) l)
         && Result.is_ok (Jsont.Tree.of_string ~budget:(budget ()) l)
         && baseline_verdict ~budget (Jlogic.Jnl.parse_exn heavy) l
            = "error: " ^ Obs.Budget.describe Obs.Budget.Fuel)
       (corpus_lines (Lazy.force corpus_text)));
  ignore (query_reparsed ~budget r heavy);
  Alcotest.(check int) "a cheaper formula still reparses those lines"
    (flagged - malformed)
    (query_reparsed ~budget r "<.name>")

let test_slot_limits () =
  let r, flagged, malformed = shallow_index () in
  ignore (query_reparsed r "true");
  Alcotest.(check int) "same limits read the slot" (flagged - malformed)
    (query_reparsed r "<.name>");
  List.iter
    (fun (what, budget) ->
      Alcotest.(check int) (what ^ " reparse every flagged line") flagged
        (query_reparsed ~budget r "<.name>"))
    [ ("other fuel", fun () -> Obs.Budget.create ~fuel:1_000_000 ());
      ("other depth", fun () -> Obs.Budget.create ~max_depth:3 ());
      ("the default again", fun () -> Obs.Budget.create ()) ];
  Alcotest.(check int) "then the default reads the slot" (flagged - malformed)
    (query_reparsed r "<.name>")

let test_slot_deadline () =
  let r, flagged, malformed = shallow_index () in
  let timed () = Obs.Budget.create ~timeout_ms:600_000 () in
  Alcotest.(check int) "a deadline reparses every flagged line" flagged
    (query_reparsed ~budget:timed r "<.name>");
  Alcotest.(check bool) "and fills no slot" true
    (Jindex.Reader.error_cells r = None);
  ignore (query_reparsed r "<.name>");
  Alcotest.(check int) "a filled slot is not read under a deadline" flagged
    (query_reparsed ~budget:timed r "<.name>");
  Alcotest.(check int) "nor replaced by one" (flagged - malformed)
    (query_reparsed r "<.name>")

(* Two domains run [queries] on [r] at once; both answer like the
   per-line baseline. *)
let race r queries =
  let lines = corpus_lines (Lazy.force corpus_text) in
  let expect =
    List.map
      (fun q ->
        let phi = Jlogic.Jnl.parse_exn q in
        List.map (fun (_, line) -> baseline_verdict phi line) lines)
      queries
  in
  let run () =
    List.map
      (fun q ->
        match Jindex.Query.run r (Jlogic.Jnl.parse_exn q) with
        | Ok v -> Array.to_list (Array.map Jindex.Query.verdict_string v)
        | Error m -> [ "query failed: " ^ m ])
      queries
  in
  let a = Domain.spawn run and b = Domain.spawn run in
  let a = Domain.join a and b = Domain.join b in
  List.iteri
    (fun i q ->
      Alcotest.(check (list string)) ("first domain on " ^ q) (List.nth expect i)
        (List.nth a i);
      Alcotest.(check (list string)) ("second domain on " ^ q)
        (List.nth expect i) (List.nth b i))
    queries

(* two domains race to fill the slot of one fresh reader *)
let test_slot_domains () =
  let r, _, _ = shallow_index () in
  race r
    [ "<.orders[0].lines[0].sku>"; "!<.orders[0].lines[0].sku>"; "true";
      "eq(.name.first, \"John\")"; "<.name.first> | <.tail>" ]

(* two domains race to build the root table of one fresh reader *)
let test_roots_domains () =
  let _corpus, idx = build_corpus_index () in
  race (open_exn idx)
    [ "<.name>"; "<.tags.next>"; "<.orders[0].lines[0].sku>"; "!<.name.first>";
      "<.id> & eq(.name.last, \"Doe\")"; "<[1]>"; "<.~/ta.*/[1]>" ]

(* ---- staleness --------------------------------------------------------------- *)

let test_stale_corpus () =
  let corpus, idx = build_corpus_index () in
  write_file corpus (Lazy.force corpus_text ^ "\n{\"new\":1}");
  let r = open_exn idx in
  (match Jindex.Query.run r Jlogic.Jnl.True with
  | Error m ->
    Alcotest.(check bool) ("mentions staleness: " ^ m) true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "stale corpus accepted");
  (* missing corpus: also an error, not an exception *)
  Sys.remove corpus;
  match Jindex.Query.run r Jlogic.Jnl.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing corpus accepted"

(* a same-size rewrite is caught by the corpus checksum, on a fresh
   reader and on one that verified the old bytes once the file's
   identity moves; a byte-identical copy named by [~corpus] answers *)
let test_same_size_rewrite () =
  let corpus = temp_path ".ndjson" and idx = temp_path ".idx" in
  let before = "{\"a\":1}\n{\"a\":\n{\"b\":2}\n" in
  let after = "{\"z\":1}\n{\"z\":\n{\"z\":2}\n" in
  Alcotest.(check int) "same size" (String.length before) (String.length after);
  write_file corpus before;
  (match Jindex.Writer.build ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  let copy = temp_path ".ndjson" in
  write_file copy before;
  let phi = Jlogic.Jnl.parse_exn "<.a>" in
  let answers ?corpus r =
    match Jindex.Query.run ?corpus r phi with
    | Ok v -> List.map Jindex.Query.verdict_string (Array.to_list v)
    | Error m -> [ "query failed: " ^ m ]
  in
  let expect = List.map (baseline_verdict phi) [ "{\"a\":1}"; "{\"a\":"; "{\"b\":2}" ] in
  let stale what = function
    | Ok _ -> Alcotest.fail (what ^ ": rewritten corpus answered")
    | Error m ->
      Alcotest.(check bool) (what ^ " says stale index: " ^ m) true
        (let sub = "stale index" in
         let rec go i =
           i + String.length sub <= String.length m
           && (String.sub m i (String.length sub) = sub || go (i + 1))
         in
         go 0)
  in
  let r = open_exn idx in
  Alcotest.(check (list string)) "the built corpus answers" expect (answers r);
  Alcotest.(check (list string)) "a byte-identical copy answers" expect
    (answers ~corpus:copy r);
  write_file corpus after;
  stale "a fresh reader" (Jindex.Query.run (open_exn idx) phi);
  Unix.utimes corpus 0. 1_000_000.;
  stale "a reader that verified the old bytes" (Jindex.Query.run r phi);
  Alcotest.(check (list string)) "the copy still answers" expect
    (answers ~corpus:copy r)

(* ---- writer leftovers ----------------------------------------------------------- *)

(* a build sweeps the temporary files of dead builds of its output and
   leaves a live process's alone *)
let test_sweep_temps () =
  let corpus = temp_path ".ndjson" and out = temp_path ".idx" in
  write_file corpus "{\"a\":1}\n";
  let dead =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] dead);
  let planted pid = Printf.sprintf "%s.%d-0.tmp" out pid in
  let live = Unix.getpid () in
  write_file (planted dead) "half an index";
  write_file (planted live) "half an index";
  (match Jindex.Writer.build ~corpus ~output:out () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("build failed: " ^ m));
  Alcotest.(check bool) "a dead build's temp file is swept" false
    (Sys.file_exists (planted dead));
  Alcotest.(check bool) "a live process's temp file stays" true
    (Sys.file_exists (planted live));
  Sys.remove (planted live)

(* ---- tree label-index single-build regression (PR 8 satellite) -------------- *)

let test_tree_index_single_build () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      Obs.Metrics.reset ();
      let t =
        Jsont.Tree.of_string_exn
          "{\"a\": [1, 2, {\"b\": 3}], \"c\": {\"a\": 4}}"
      in
      (* an accessor first: builds the index once *)
      let hits = Jsont.Tree.key_index t "a" in
      Alcotest.(check int) "two a-edges" 2 (Array.length hits);
      Alcotest.(check int) "one build after accessor" 1
        (Obs.Metrics.counter_value "tree.index.builds");
      (* explicit build_index afterwards must neither rebuild nor
         charge the budget again *)
      let budget = Obs.Budget.create ~fuel:1 () in
      Jsont.Tree.build_index ~budget t;
      Jsont.Tree.build_index ~budget t;
      Alcotest.(check int) "still one build" 1
        (Obs.Metrics.counter_value "tree.index.builds");
      (* the one-unit budget survived: build_index on an indexed tree
         is free *)
      Obs.Budget.burn budget 1)

let () =
  Alcotest.run "index"
    [ ("differential",
       [ Alcotest.test_case "index vs reparse baseline" `Quick
           test_differential;
         Alcotest.test_case "index vs reparse baseline, past cap" `Quick
           test_differential_past_cap;
         Alcotest.test_case "line numbering" `Quick test_linenos;
         Alcotest.test_case "fuel follows postings, not corpus size" `Quick
           test_fuel_rule;
         Alcotest.test_case "recurring-key chain, cheap route" `Quick
           test_cheap_route ]);
      ("eq-pushdown",
       [ Alcotest.test_case "postings-only, zero reparses" `Quick
           test_eq_zero_reparse;
         Alcotest.test_case "a pair past 65 536 entries, from postings"
           `Quick test_eq_common_pair;
         Alcotest.test_case "number canonicalization" `Quick
           test_number_canonicalization;
         Alcotest.test_case "planner reorders conjunctions" `Quick
           test_planner_reorders ]);
      ("determinism",
       [ Alcotest.test_case "builds agree with Tree.of_string" `Quick
           test_tree_parity;
         Alcotest.test_case "bytes pinned to the tree writer's" `Quick
           test_pinned_bytes ]);
      ("faults",
       [ Alcotest.test_case "bit flips rejected" `Quick test_bit_flips;
         Alcotest.test_case "truncations rejected" `Quick test_truncations;
         Alcotest.test_case "forged counts rejected" `Quick
           test_forged_counts;
         Alcotest.test_case "forged pair table rejected" `Quick
           test_forged_pair_table;
         Alcotest.test_case "v1 magic gets versioned refusal" `Quick
           test_old_version_refusal;
         Alcotest.test_case "corrupt postings error under no-verify" `Quick
           test_corrupt_postings_no_verify;
         Alcotest.test_case "corrupt value postings error under no-verify"
           `Quick test_corrupt_value_postings_no_verify;
         Alcotest.test_case "forged subtree sizes error under no-verify"
           `Quick test_forged_sizes_no_verify;
         Alcotest.test_case "unsorted postings error, no-verify" `Quick
           test_unsorted_postings_no_verify ]);
      ("error-cells",
       [ Alcotest.test_case "formula-dependent lines always reparse" `Quick
           test_slot_formula_dependent;
         Alcotest.test_case "other limits reparse" `Quick test_slot_limits;
         Alcotest.test_case "deadline budgets never read the slot" `Quick
           test_slot_deadline;
         Alcotest.test_case "two domains on a fresh reader" `Quick
           test_slot_domains ]);
      ("roots",
       [ Alcotest.test_case "two domains build one root table" `Quick
           test_roots_domains ]);
      ("staleness",
       [ Alcotest.test_case "changed or missing corpus refused" `Quick
           test_stale_corpus;
         Alcotest.test_case "same-size rewrite refused, copy answers" `Quick
           test_same_size_rewrite ]);
      ("writer",
       [ Alcotest.test_case "dead builds' temp files swept" `Quick
           test_sweep_temps ]);
      ("tree-index",
       [ Alcotest.test_case "single build, single charge" `Quick
           test_tree_index_single_build ]) ]
