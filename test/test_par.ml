(* Tests for the domain pool and the batch evaluation pipeline: result
   correctness and ordering, jobs-independence of outputs and metric
   totals (the determinism contract CI gates), exception propagation,
   pool lifecycle, the NDJSON line reader against the whole-input
   splitter it replaced, the top-level value cutter at every chunk size
   and lane count, and per-document error rendering. *)

let test_pool_map_basic () =
  let pool = Par.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "lanes" 4 (Par.Pool.lanes pool);
      let items = Array.init 100 Fun.id in
      let out = Par.Pool.map pool (fun x -> x * x) items in
      Alcotest.(check (array int)) "squares in order"
        (Array.init 100 (fun i -> i * i))
        out;
      (* empty and singleton inputs *)
      Alcotest.(check (array int)) "empty" [||]
        (Par.Pool.map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Par.Pool.map pool (fun x -> x + 1) [| 6 |]))

let test_pool_single_lane () =
  (* one lane: no domains spawned, runs on the caller *)
  let pool = Par.Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let out = Par.Pool.map pool string_of_int (Array.init 10 Fun.id) in
      Alcotest.(check (array string)) "sequential degenerate"
        (Array.init 10 string_of_int)
        out)

let test_pool_exception () =
  let pool = Par.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      (match
         Par.Pool.map pool
           (fun x -> if x = 17 then failwith "boom" else x)
           (Array.init 64 Fun.id)
       with
      | _ -> Alcotest.fail "expected the item's exception to propagate"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the pool survives a failed map *)
      let out = Par.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool reusable" [| 2; 3; 4 |] out)

let test_pool_shutdown () =
  let pool = Par.Pool.create 2 in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  match Par.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown should be rejected"
  | exception Invalid_argument _ -> ()

(* The batch work unit the bench and CLI use: parse a fresh document,
   evaluate a JNL formula against it.  Each call builds its own budget
   — fueled budgets are mutable and must not cross lanes. *)
let phi = Jlogic.Jnl.(Exists (Seq (Key "name", Key "first")))

let batch_work text =
  let t =
    Jsont.Tree.of_string_exn ~budget:(Obs.Budget.create ~fuel:100_000 ()) text
  in
  let ctx = Jlogic.Jnl_eval.context t in
  (Jsont.Tree.node_count t * 2)
  + Bool.to_int (Jlogic.Jnl_eval.holds ctx Jsont.Tree.root phi)

let docs =
  let rng = Jworkload.Prng.create 99 in
  Array.init 40 (fun _ ->
      Jsont.Printer.compact (Jworkload.Gen_json.sized rng 60))

let test_batch_jobs_agreement () =
  Obs.Metrics.set_enabled true;
  let run jobs =
    Obs.Metrics.reset ();
    let out = Par.Batch.map ~jobs batch_work docs in
    let values = Obs.Metrics.counter_value "parse.values" in
    let batched = Obs.Metrics.counter_value "par.batch.docs" in
    (out, values, batched)
  in
  let out1, values1, batched1 = run 1 in
  let out4, values4, batched4 = run 4 in
  Alcotest.(check (array int)) "results independent of jobs" out1 out4;
  Alcotest.(check int) "parse.values independent of jobs" values1 values4;
  Alcotest.(check bool) "parse.values counted" true (values1 > 0);
  Alcotest.(check int) "docs counted once per doc" (Array.length docs) batched1;
  Alcotest.(check int) "docs counted once per doc (4)" (Array.length docs)
    batched4

(* Stray task exceptions reaching the worker loop must be counted, not
   silently swallowed; non-recoverable ones must kill the worker and
   surface at the shutdown join. *)
let await cond =
  let deadline = Obs.Budget.now_mono () +. 5.0 in
  let rec go () =
    if cond () then true
    else if Obs.Budget.now_mono () > deadline then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let test_pool_stray_counted () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let pool = Par.Pool.create 3 in
  Par.Pool.submit pool (fun () -> failwith "stray one");
  Par.Pool.submit pool (fun () -> raise Not_found);
  Alcotest.(check bool) "strays counted" true
    (await (fun () -> Par.Pool.stray_exn_count pool = 2));
  (* recoverable strays leave every worker alive and working *)
  let out = Par.Pool.map pool (fun x -> x * 2) (Array.init 50 Fun.id) in
  Alcotest.(check (array int)) "pool survives recoverable strays"
    (Array.init 50 (fun i -> i * 2))
    out;
  Par.Pool.shutdown pool;
  Alcotest.(check int) "total folded into par.pool.stray_exn" 2
    (Obs.Metrics.counter_value "par.pool.stray_exn");
  Obs.Metrics.set_enabled was

let test_pool_stray_nonrecoverable () =
  let pool = Par.Pool.create 2 in
  Par.Pool.submit pool (fun () -> raise Stack_overflow);
  Alcotest.(check bool) "stray counted" true
    (await (fun () -> Par.Pool.stray_exn_count pool = 1));
  (* the lone worker died re-raising; shutdown joins it and re-raises *)
  match Par.Pool.shutdown pool with
  | () -> Alcotest.fail "expected Stack_overflow to surface at the join"
  | exception Stack_overflow -> ()

let test_batch_map_pool () =
  let pool = Par.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let a = Par.Batch.map_pool pool batch_work docs in
      let b = Par.Batch.map ~jobs:1 batch_work docs in
      Alcotest.(check (array int)) "pool batch agrees with sequential" a b)

(* ---- Par.Batch.lines: the NDJSON reader ---------------------------------- *)

(* Reference splitter: the whole input split on '\n', numbered from 1,
   trim-blank lines dropped — the numbering [lines] must reproduce at
   every chunk size and lane count. *)
let reference_split text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, line) -> String.trim line <> "")

let with_temp_file text f =
  let path = Filename.temp_file "par_lines" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      In_channel.with_open_bin path f)

(* (line number, f's result) in emit order, and the counter totals *)
let run_lines ~jobs ~chunk_bytes text =
  Obs.Metrics.reset ();
  let out = ref [] in
  with_temp_file text
    (Par.Batch.lines ~jobs ~chunk_bytes
       (fun line ->
         Obs.Metrics.incr "test.lines";
         line)
       (fun lineno line -> out := (lineno, line) :: !out));
  ( List.rev !out,
    List.map Obs.Metrics.counter_value
      [ "test.lines"; "par.batch.docs"; "validate.feed.chunks" ] )

let test_lines_identity () =
  Obs.Metrics.set_enabled true;
  List.iteri
    (fun case text ->
      let expected = reference_split text in
      let n = List.length expected in
      List.iter
        (fun chunk_bytes ->
          let _, sequential = run_lines ~jobs:1 ~chunk_bytes text in
          List.iter
            (fun jobs ->
              let got, counters = run_lines ~jobs ~chunk_bytes text in
              if got <> expected then
                Alcotest.failf "case %d, chunk %d, jobs %d: lines differ" case
                  chunk_bytes jobs;
              Alcotest.(check (list int))
                (Printf.sprintf "case %d chunk %d jobs %d counters" case
                   chunk_bytes jobs)
                sequential counters)
            [ 1; 2; 4 ];
          Alcotest.(check (pair int int))
            (Printf.sprintf "case %d chunk %d: one run and one doc per line"
               case chunk_bytes)
            (n, n)
            (List.nth sequential 0, List.nth sequential 1))
        [ 1; 7; 65536 ])
    Ndjson_cases.lines_cases

let test_lines_chunks_counted () =
  Obs.Metrics.set_enabled true;
  let count ~jobs =
    Obs.Metrics.reset ();
    with_temp_file "{}\n[]\n\"x\"\n"
      (Par.Batch.lines ~jobs ~chunk_bytes:4 Fun.id (fun _ _ -> ()));
    Obs.Metrics.counter_value "validate.feed.chunks"
  in
  Alcotest.(check int) "11 bytes in 4-byte slices" 3 (count ~jobs:1);
  Alcotest.(check int) "same slices at jobs 2" 3 (count ~jobs:2);
  match
    with_temp_file "x" (Par.Batch.lines ~chunk_bytes:0 Fun.id (fun _ _ -> ()))
  with
  | () -> Alcotest.fail "chunk_bytes 0 accepted"
  | exception Invalid_argument _ -> ()

(* ---- Par.Batch.values: the top-level value cutter ------------------------- *)

(* (line number, document) in emit order *)
let run_values ?collection ~jobs ~chunk_bytes text =
  let out = ref [] in
  with_temp_file text
    (Par.Batch.values ?collection ~jobs ~chunk_bytes Fun.id (fun lineno doc ->
         out := (lineno, doc) :: !out));
  List.rev !out

let show_docs docs =
  String.concat " | " (List.map (fun (l, d) -> Printf.sprintf "%d:%S" l d) docs)

(* The same documents at every lane count and every chunk size, from 1
   to the input's length ([sizes] instead for large inputs). *)
let check_values ?collection ?sizes text expected =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> List.init (max 1 (String.length text)) (fun i -> i + 1)
  in
  List.iter
    (fun chunk_bytes ->
      List.iter
        (fun jobs ->
          let got = run_values ?collection ~jobs ~chunk_bytes text in
          if got <> expected then
            Alcotest.failf "chunk %d, jobs %d:\n  got      %s\n  expected %s"
              chunk_bytes jobs (show_docs got) (show_docs expected))
        [ 1; 2; 4 ])
    sizes

let values_case name ?collection ?sizes text expected =
  Alcotest.test_case name `Quick (fun () ->
      check_values ?collection ?sizes text expected)

(* A bad line's document fails its own parse with the error
   [validate --stream] prints for that line. *)
let parse_cell text =
  Par.Batch.cell (fun () ->
      ignore (Jsont.Tree.of_string_exn text);
      "ok")

let test_values_malformed () =
  let text = "{\"a\":1}\n{\"a\":\n{\"b\":2}\n" in
  check_values text [ (1, {|{"a":1}|}); (2, {|{"a":|}); (3, {|{"b":2}|}) ];
  Alcotest.(check string) "the bad line's cell"
    "error: line 1, column 6: unexpected end of input, expected a JSON value"
    (parse_cell {|{"a":|})

let test_values_deep () =
  let n = 100_000 in
  let text = String.make n '[' ^ "1" ^ String.make n ']' in
  let sizes = [ 1; 7; 4096; 65536; String.length text ] in
  check_values ~sizes text [ (1, text) ];
  Alcotest.(check string) "depth error from the document's parse"
    "error: line 1, column 10002: maximum nesting depth 10000 exceeded"
    (parse_cell text)

(* Every line opens a bracket that never closes: each line is a bad
   line of its own, and the cut stays linear (a rescan from each line
   to the end would take minutes here). *)
let test_values_unclosed_lines () =
  let n = 100_000 in
  let text = String.concat "" (List.init n (fun _ -> "[\n")) ^ "}" in
  let expected = List.init n (fun i -> (i + 1, "[")) @ [ (n + 1, "}") ] in
  check_values ~sizes:[ 1; 4096; 65536 ] text expected

(* Generated values, written compact or pretty and separated by random
   whitespace: the cut gives back exactly those values, on the lines
   they begin on, in every layout. *)
let test_values_generated () =
  let rng = Jworkload.Prng.create 23 in
  for _ = 1 to 40 do
    let vs =
      List.init (Jworkload.Prng.int rng 6) (fun _ -> Jworkload.Gen_json.sized rng 12)
    in
    let buf = Buffer.create 256 and line = ref 1 and expected = ref [] in
    List.iter
      (fun v ->
        let sep = Jworkload.Prng.choose rng [ " "; "\n"; "\r\n"; "\n\n  "; "" ] in
        (* two scalars need a separator to stay two *)
        let sep = if sep = "" && Buffer.length buf > 0 then " " else sep in
        Buffer.add_string buf sep;
        String.iter (fun ch -> if ch = '\n' then incr line) sep;
        let text =
          if Jworkload.Prng.bool rng then Jsont.Printer.pretty v
          else Jsont.Printer.compact v
        in
        expected := (!line, text) :: !expected;
        Buffer.add_string buf text;
        String.iter (fun ch -> if ch = '\n' then incr line) text)
      vs;
    let text = Buffer.contents buf and expected = List.rev !expected in
    check_values ~sizes:[ 1; 2; 3; 5; 8; 64; 65536 ] text expected;
    List.iter2
      (fun v (_, doc) ->
        Alcotest.(check bool) "parses back" true
          (Jsont.Value.equal v (Jsont.Parser.parse_exn doc)))
      vs expected
  done

(* Random bytes of JSON's syntax: whatever the cut makes of them, it
   makes the same of them at every lane count and at chunk sizes that
   split every kind of token. *)
let test_values_random () =
  let rng = Jworkload.Prng.create 31 in
  let alphabet =
    [ '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; '1'; 'a'; ' '; '\n'; '\n'; '\r' ]
  in
  for _ = 1 to 50 do
    let text =
      String.init (Jworkload.Prng.int rng 60) (fun _ ->
          Jworkload.Prng.choose rng alphabet)
    in
    List.iter
      (fun collection ->
        check_values ~collection ~sizes:[ 1; 2; 3; 7; 64 ] text
          (run_values ~collection ~jobs:1 ~chunk_bytes:65536 text))
      [ false; true ]
  done

(* the input [Parser.parse_many] was tested on, before the cut replaced it *)
let test_values_three_kinds () =
  let text = {| {"a":1} [2] "three" |} in
  check_values text [ (1, {|{"a":1}|}); (1, "[2]"); (1, {|"three"|}) ];
  Alcotest.(check (list string)) "each parses alone"
    [ {|{"a":1}|}; "[2]"; {|"three"|} ]
    (List.map
       (fun (_, doc) -> Jsont.Printer.compact (Jsont.Parser.parse_exn doc))
       (run_values ~jobs:1 ~chunk_bytes:3 text))

let values_cases =
  [ Alcotest.test_case "malformed line" `Quick test_values_malformed;
    values_case "pretty-printed document"
      "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\"c\": \"x\"}\n}\n"
      [ (1, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\"c\": \"x\"}\n}") ];
    values_case "two values on one line" "{\"a\":1} [2]\n\"x\" 3\n"
      [ (1, {|{"a":1}|}); (1, "[2]"); (2, {|"x"|}); (2, "3") ];
    values_case "blank and CRLF lines" "\r\n{\"a\":1}\r\n\r\n  \n[2]\r\n"
      [ (2, {|{"a":1}|}); (5, "[2]") ];
    values_case "unterminated last value" "{\"a\":1}\n{\"b\":[1,2"
      [ (1, {|{"a":1}|}); (2, {|{"b":[1,2|}) ];
    values_case "value completed on a later line" "{\"a\":\n1}\n2\n"
      [ (1, "{\"a\":\n1}"); (3, "2") ];
    values_case "one value closing where the next opens"
      "{\"a\":1} {\n\"b\":2} {\n\"c\":3}\n"
      [ (1, {|{"a":1}|}); (1, "{\n\"b\":2}"); (2, "{\n\"c\":3}") ];
    values_case "bad value after a good one" "{\"a\":1} {\"a\":\n{\"b\":2}\n"
      [ (1, {|{"a":1} {"a":|}); (2, {|{"b":2}|}) ];
    values_case "mismatched bracket" "[1,\n2}\n[3]\n"
      [ (1, "[1,"); (2, "2}"); (3, "[3]") ];
    values_case "stray top-level comma" "{\"a\":1},{\"b\":2}\n3\n"
      [ (1, {|{"a":1},{"b":2}|}); (2, "3") ];
    values_case "strings hide brackets and end at their line"
      "{\"a\":\"]\\\"[\"}\n\"abc\n\"def\"\n"
      [ (1, {|{"a":"]\"["}|}); (2, {|"abc|}); (3, {|"def"|}) ];
    Alcotest.test_case "100k-deep one-line value" `Quick test_values_deep;
    Alcotest.test_case "unclosed bracket on every line" `Quick
      test_values_unclosed_lines;
    values_case "lone array" "[1, {\"a\":2},\n \"three\"]\n"
      [ (1, "[1, {\"a\":2},\n \"three\"]") ];
    values_case "lone array, collection" ~collection:true
      "[1, {\"a\":2},\n \"three\"]\n"
      [ (1, "1"); (1, {|{"a":2}|}); (2, {|"three"|}) ];
    values_case "empty lone array, collection" ~collection:true " [ ]\n" [];
    values_case "array followed by a value" "[1,2]\n3\n"
      [ (1, "[1,2]"); (2, "3") ];
    values_case "array followed by a value, collection" ~collection:true
      "[1,2]\n3\n"
      [ (1, "[1,2]"); (2, "3") ];
    Alcotest.test_case "three values, three kinds" `Quick
      test_values_three_kinds;
    Alcotest.test_case "generated values in any layout" `Quick
      test_values_generated;
    Alcotest.test_case "random syntax bytes" `Quick test_values_random ]

(* ---- Par.Batch.cell: one document's failure as a result line -------------- *)

(* Reference renderings [cell] must reproduce: the CLI batch lanes'
   failure fold... *)
let batch_fold f =
  match f () with
  | r -> r
  | exception Failure m -> "error: " ^ m
  | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r
  | exception Sys_error m -> "error: " ^ m

(* ...and the daemon's fold of a streamed verdict. *)
let daemon_fold f =
  match Jsont.Parser.wrap f with
  | Ok r -> r
  | Error e -> "error: " ^ Format.asprintf "%a" Jsont.Parser.pp_error e
  | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r

let test_cell_rendering () =
  let check what expected f =
    Alcotest.(check string) what expected (Par.Batch.cell f)
  in
  let same_as_batch what f = check what (batch_fold f) f in
  let same_as_daemon what f = check what (daemon_fold f) f in
  same_as_batch "result" (fun () -> "valid");
  same_as_batch "Failure" (fun () -> failwith "bad formula: x");
  same_as_batch "Sys_error" (fun () ->
      In_channel.with_open_bin "/nonexistent/par-cell.json" In_channel.input_all);
  List.iter
    (fun r ->
      same_as_batch (Obs.Budget.string_of_reason r) (fun () ->
          raise (Obs.Budget.Exhausted r));
      same_as_daemon (Obs.Budget.string_of_reason r) (fun () ->
          raise (Obs.Budget.Exhausted r)))
    Obs.Budget.[ Fuel; Depth; Deadline ];
  (* positioned errors: the batch fold takes [Tree.of_string]'s Error
     through [Failure], the daemon fold renders [Parser.wrap]'s *)
  let plan =
    Jschema.Validate.Plan.compile
      (Jschema.Parse.of_string_exn {|{"type":"object"}|})
  in
  List.iter
    (fun text ->
      same_as_batch ("tree " ^ text) (fun () ->
          match Jsont.Tree.of_string text with
          | Ok _ -> "valid"
          | Error e -> failwith (Format.asprintf "%a" Jsont.Parser.pp_error e));
      check ("of_string_exn " ^ text)
        (batch_fold (fun () ->
             match Jsont.Tree.of_string text with
             | Ok _ -> "valid"
             | Error e ->
               failwith (Format.asprintf "%a" Jsont.Parser.pp_error e)))
        (fun () ->
          ignore (Jsont.Tree.of_string_exn text);
          "valid");
      same_as_daemon ("stream " ^ text) (fun () ->
          if Jschema.Validate.Plan.run_stream plan text then "valid"
          else "INVALID"))
    [ {|{"a":1,|}; {|{"a":tru}|}; "\"\001\""; {|{"a":1} x|}; "[1e999]";
      {|{"a":1,"a":2}|}; "-3" ];
  match Par.Batch.cell (fun () -> raise Not_found) with
  | _ -> Alcotest.fail "Not_found was folded"
  | exception Not_found -> ()

let () =
  Alcotest.run "par"
    [ ("pool",
       [ Alcotest.test_case "map basic" `Quick test_pool_map_basic;
         Alcotest.test_case "single lane" `Quick test_pool_single_lane;
         Alcotest.test_case "exception propagation" `Quick test_pool_exception;
         Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
         Alcotest.test_case "stray exceptions counted" `Quick
           test_pool_stray_counted;
         Alcotest.test_case "non-recoverable strays surface" `Quick
           test_pool_stray_nonrecoverable ]);
      ("batch",
       [ Alcotest.test_case "jobs agreement" `Quick test_batch_jobs_agreement;
         Alcotest.test_case "map_pool" `Quick test_batch_map_pool;
         Alcotest.test_case "lines identity" `Quick test_lines_identity;
         Alcotest.test_case "lines chunks counted" `Quick
           test_lines_chunks_counted;
         Alcotest.test_case "cell rendering" `Quick test_cell_rendering ]);
      ("values", values_cases) ]
