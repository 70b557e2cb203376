(* jsonlogic — command-line front end to the library.

   Subcommands:
     parse      parse and pretty-print a JSON document
     eval       evaluate a JNL formula at the root of each document
     select     select subdocuments with a JSONPath expression
     find       filter a collection with a MongoDB-style filter
     aggregate  run a MongoDB-style aggregation pipeline over a collection
     validate   validate documents against a JSON Schema
     sat        decide satisfiability of a JNL formula (with witness)
     compat     detect breaking changes between two schemas
     examples   generate example documents for a schema
     infer      infer a JSON Schema from example documents
     index      build, query and inspect a corpus index
     serve      run the validation daemon
     client     talk to a running daemon *)

open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_bin path In_channel.input_all

let with_input path f =
  if path = "-" then f stdin else In_channel.with_open_bin path f

(* ---- resource budgets and metrics (shared flags) --------------------------- *)

type obs_opts = {
  budget : Obs.Budget.t;
  fresh_budget : unit -> Obs.Budget.t;
      (* budgets are mutable when fueled/deadlined, so concurrent
         documents must not share one: batch mode draws a fresh budget
         with the same limits per document *)
  jobs : int;
}

let obs_term =
  let max_depth =
    Arg.(value & opt int Obs.Budget.default_max_depth
         & info [ "max-depth" ] ~docv:"N"
             ~doc:"Recursion/nesting depth ceiling; deeper input or formulas \
                   fail with a budget error instead of a stack overflow.")
  in
  let fuel =
    Arg.(value & opt (some int) None
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Total work allowance in node visits; when spent, the \
                   command stops with a budget error.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Wall-clock deadline in milliseconds, checked while work is \
                   performed.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Record per-phase timings and per-construct counters and \
                   print them to stderr on exit.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domains to shard per-document work across (the \
                   documents of $(b,eval), $(b,validate), $(b,find), \
                   $(b,aggregate) and $(b,infer) input, $(b,--files-from) \
                   batch mode, the index and the daemon); results are \
                   deterministic and in input order regardless.")
  in
  let make max_depth fuel timeout_ms metrics jobs =
    if metrics then begin
      Obs.Metrics.set_enabled true;
      (* commands may [exit] from several places; dump on whichever *)
      at_exit (fun () -> prerr_string (Obs.Metrics.dump_text ()))
    end;
    let fresh_budget () = Obs.Budget.create ?fuel ~max_depth ?timeout_ms () in
    { budget = fresh_budget (); fresh_budget; jobs = max 1 jobs }
  in
  Term.(const make $ max_depth $ fuel $ timeout_ms $ metrics $ jobs)

let parse_doc_exn ?budget text =
  Obs.Metrics.span "phase.parse" (fun () ->
      match Jsont.Parser.parse ?budget text with
      | Ok v -> v
      | Error e -> failwith (Format.asprintf "%a" Jsont.Parser.pp_error e))

let input_arg =
  let doc = "Input file ('-' for stdin)." in
  Arg.(value & pos_right (-1) string [] & info [] ~docv:"FILE" ~doc)

(* ---- batch mode ----------------------------------------------------------- *)

let files_from_arg =
  Arg.(value & opt (some string) None
       & info [ "files-from" ] ~docv:"LIST"
           ~doc:"Batch mode: read document file paths from $(docv) (one \
                 per line, '-' for stdin), process each file as one JSON \
                 document sharded across $(b,--jobs) domains, and print \
                 one 'path<TAB>result' line per file, in input order.")

(* --files-from: the listed paths, and [f] on each across the --jobs
   lanes, results in list order *)
let map_files obs list_path f =
  let paths =
    with_input list_path In_channel.input_lines
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> Array.of_list
  in
  (paths, Par.Batch.map ~jobs:obs.jobs f paths)

let last_input args = match List.rev args with [] -> "-" | x :: _ -> x

(* ---- inline input: one route for every collection command ----------------- *)

(* eval, validate, find, aggregate and infer cut their input into
   documents with [Par.Batch.values], in [Par.Batch.slice_bytes]
   slices; every document runs under its own budget on the --jobs
   lanes. *)

let parse_error e = Format.asprintf "%a" Jsont.Parser.pp_error e

let tree_of obs text =
  Obs.Metrics.span "phase.parse" (fun () ->
      Jsont.Tree.of_string_exn ~budget:(obs.fresh_budget ()) text)

(* eval and validate: one row per document of [path], in input order —
   [f]'s cell on its tree and the document compacted, or the error
   cell and [path:line], the line it begins on.  True when [good]
   holds of every cell. *)
let print_rows obs path f good =
  let all = ref true in
  let doc text =
    let shown = ref None in
    let cell =
      Par.Batch.cell (fun () ->
          let tree = tree_of obs text in
          let r = f tree in
          shown := Some (Jsont.Printer.compact (Jsont.Tree.to_value tree));
          r)
    in
    (cell, !shown)
  in
  with_input path
    (Par.Batch.values ~jobs:obs.jobs ~chunk_bytes:Par.Batch.slice_bytes doc
       (fun lineno (cell, shown) ->
         if not (good cell) then all := false;
         Printf.printf "%s\t%s\n" cell
           (Option.value shown ~default:(Printf.sprintf "%s:%d" path lineno))));
  !all

(* find, aggregate, infer and --from: [f] on each document of the
   collection at [path] (a lone top-level array holds its elements)
   and [k] on each result in input order.  The first document that
   fails stops the command with its error, labelled [path:line]. *)
let each_doc obs path f k =
  with_input path
    (Par.Batch.values ~jobs:obs.jobs ~collection:true
       ~chunk_bytes:Par.Batch.slice_bytes f (fun lineno -> function
       | Ok x -> k x
       | Error m -> failwith (Printf.sprintf "%s:%d: %s" path lineno m)))

let collection_values obs path =
  let docs = ref [] in
  each_doc obs path
    (fun text ->
      Result.map_error parse_error
        (Obs.Metrics.span "phase.parse" (fun () ->
             Jsont.Parser.parse ~budget:(obs.fresh_budget ()) text)))
    (fun v -> docs := v :: !docs);
  List.rev !docs

(* A pipeline over the documents of [path], or of the files listed in
   [files_from], through one per-document function: a tree,
   [doc_of_tree], [apply_doc] on the streaming prefix under a budget of
   its own; the results leave the lane as values, and a spent budget
   fails the document as a parse error does.  Then [run_docs] on the
   blocking suffix, under the command's budget; when that is empty it
   runs per document, and results print as soon as they are in
   order. *)
let run_pipeline obs pl ~files_from path =
  let module A = Jquery.Mongo_agg in
  let streaming, blocking = A.split_streaming pl in
  let per_doc text =
    match
      Obs.Metrics.span "phase.parse" (fun () ->
          Jsont.Tree.of_string ~budget:(obs.fresh_budget ()) text)
    with
    | Error e -> Error (parse_error e)
    | Ok t -> (
      Obs.Metrics.span "phase.eval" @@ fun () ->
      match
        A.apply_doc ~budget:(obs.fresh_budget ()) streaming (A.doc_of_tree t)
      with
      | ds ->
        let ds = if A.is_empty blocking then A.run_docs blocking ds else ds in
        Ok (List.map A.doc_value ds)
      | exception Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r))
  in
  let print = List.iter (fun v -> print_endline (Jsont.Printer.compact v)) in
  let kept = ref [] in
  let take vs =
    if A.is_empty blocking then print vs else kept := List.rev_append vs !kept
  in
  (match files_from with
  | Some list_path ->
    map_files obs list_path (fun p ->
        match read_input p with
        | text -> Result.map_error (fun m -> p ^ ": " ^ m) (per_doc text)
        | exception Sys_error m -> Error m)
    |> snd
    |> Array.iter (function Ok vs -> take vs | Error m -> failwith m)
  | None -> each_doc obs path per_doc take);
  if not (A.is_empty blocking) then
    print
      (Obs.Metrics.span "phase.eval" (fun () ->
           A.run_docs ~budget:obs.budget blocking
             (List.rev_map A.doc_of_value !kept)
           |> List.map A.doc_value))

let wrap f =
  let fail m =
    prerr_endline ("error: " ^ m);
    exit 1
  in
  match f () with
  | () -> ()
  | exception (Failure m | Invalid_argument m | Sys_error m) -> fail m
  | exception Obs.Budget.Exhausted r -> fail (Obs.Budget.describe r)
  | exception Unix.Unix_error (e, fn, _) ->
    fail (fn ^ ": " ^ Unix.error_message e)

(* ---- parse ----------------------------------------------------------------- *)

let parse_cmd =
  let compact =
    Arg.(value & flag & info [ "c"; "compact" ] ~doc:"Compact output.")
  in
  let run obs compact files =
    wrap (fun () ->
        let text = read_input (last_input files) in
        let v = parse_doc_exn ~budget:obs.budget text in
        print_endline
          (if compact then Jsont.Printer.compact v else Jsont.Printer.pretty v))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and pretty-print a JSON document")
    Term.(const run $ obs_term $ compact $ input_arg)

(* ---- eval ------------------------------------------------------------------ *)

let formula_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA"
         ~doc:"A JNL formula, e.g. 'eq(.name.first, \"John\")'.")

let eval_cmd =
  let run obs formula files_from files =
    wrap (fun () ->
        let phi =
          match Jlogic.Jnl.parse formula with
          | Ok f -> f
          | Error m -> failwith ("bad formula: " ^ m)
        in
        (* a row that is neither true nor false makes the exit 1 *)
        let answered c = c = "true" || c = "false" in
        let all_answered =
          match files_from with
          | Some list_path ->
            let paths, cells =
              map_files obs list_path (fun path ->
                  fst
                    (Jindex.Query.doc_cell ~fresh_budget:obs.fresh_budget phi
                       (fun () -> read_input path)))
            in
            Array.iter2 (Printf.printf "%s\t%s\n") paths cells;
            Array.for_all answered cells
          | None ->
            print_rows obs (last_input files)
              (Jindex.Query.root_cell ~fresh_budget:obs.fresh_budget phi)
              answered
        in
        if not all_answered then exit 1)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a JNL formula at the root of each document")
    Term.(const run $ obs_term $ formula_pos $ files_from_arg $ input_arg)

(* ---- select ----------------------------------------------------------------- *)

let select_cmd =
  let path_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSONPATH"
           ~doc:"A JSONPath expression, e.g. '\\$.store.book[*].author'.")
  in
  let run obs path files =
    wrap (fun () ->
        (* one pass builds the tree the path runs on, under one budget;
           a bad document is reported before a bad path *)
        let text = read_input (last_input files) in
        let tree =
          match
            Obs.Metrics.span "phase.parse" (fun () ->
                Jsont.Tree.of_string ~budget:obs.budget text)
          with
          | Ok t -> t
          | Error e -> failwith (parse_error e)
        in
        let p =
          match Jquery.Jsonpath.parse path with
          | Ok p -> p
          | Error m -> failwith ("bad path: " ^ m)
        in
        let ctx = Jlogic.Jnl_eval.context ~budget:obs.budget tree in
        Obs.Metrics.span "phase.eval" (fun () ->
            Jlogic.Jnl_eval.succs ctx p Jsont.Tree.root)
        |> List.iter (fun n ->
               print_endline (Jsont.Printer.compact (Jsont.Tree.value_at tree n))))
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Select subdocuments with a JSONPath expression")
    Term.(const run $ obs_term $ path_pos $ input_arg)

(* ---- find ------------------------------------------------------------------- *)

let find_cmd =
  let filter_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILTER"
           ~doc:"A MongoDB-style filter document, e.g. '{\"age\": {\"\\$gte\": 18}}'.")
  in
  let project =
    Arg.(value & opt (some string) None & info [ "p"; "project" ] ~docv:"PROJ"
           ~doc:"Projection document, e.g. '{\"name\": 1}'.")
  in
  let run obs filter project files =
    wrap (fun () ->
        let f =
          match Jquery.Mongo.parse_string filter with
          | Ok f -> f
          | Error m -> failwith ("bad filter: " ^ m)
        in
        let p =
          Option.map
            (fun p ->
              match Jquery.Mongo.parse_projection (parse_doc_exn p) with
              | Ok p -> p
              | Error m -> failwith ("bad projection: " ^ m))
            project
        in
        run_pipeline obs (Jquery.Mongo_agg.of_find f p) ~files_from:None
          (last_input files))
  in
  Cmd.v
    (Cmd.info "find" ~doc:"Filter a collection with a MongoDB-style filter")
    Term.(const run $ obs_term $ filter_pos $ project $ input_arg)

(* ---- aggregate ------------------------------------------------------------- *)

let aggregate_cmd =
  let pipeline_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PIPELINE"
           ~doc:"A MongoDB-style aggregation pipeline, e.g. \
                 '[{\"\\$match\": {\"age\": {\"\\$gte\": 18}}}, \
                 {\"\\$group\": {\"_id\": \"\\$city\", \"n\": {\"\\$count\": {}}}}]'.")
  in
  let from_arg =
    Arg.(value & opt_all string []
         & info [ "from" ] ~docv:"NAME=FILE"
             ~doc:"Register a $(b,\\$lookup) collection: documents read from \
                   $(i,FILE) (JSON lines or a top-level array) joinable under \
                   $(i,NAME).  Repeatable.")
  in
  let run obs pipeline froms files_from files =
    wrap (fun () ->
        let collections =
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun spec ->
              match String.index_opt spec '=' with
              | None ->
                failwith (Printf.sprintf "--from expects NAME=FILE, got %s" spec)
              | Some i ->
                let name = String.sub spec 0 i in
                let file = String.sub spec (i + 1) (String.length spec - i - 1) in
                Hashtbl.replace tbl name (collection_values obs file))
            froms;
          fun name -> Hashtbl.find_opt tbl name
        in
        let pl =
          match Jquery.Mongo_agg.parse_string ~collections pipeline with
          | Ok pl -> pl
          | Error m -> failwith ("bad pipeline: " ^ m)
        in
        run_pipeline obs pl ~files_from (last_input files))
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Run a MongoDB-style aggregation pipeline over a collection")
    Term.(const run $ obs_term $ pipeline_pos $ from_arg $ files_from_arg
          $ input_arg)

(* ---- validate ----------------------------------------------------------------- *)

let validate_cmd =
  let schema_arg =
    Arg.(required & opt (some string) None & info [ "s"; "schema" ] ~docv:"FILE"
           ~doc:"JSON Schema file.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Validate straight off the token stream without materializing \
                 documents (memory stays proportional to nesting depth, not \
                 document size).  With $(b,--files-from), each listed file is \
                 one streamed document read in 64 KiB slices and \
                 fed to the resumable lexer; otherwise the input is NDJSON — \
                 one document per line — and each line prints \
                 'path:line<TAB>result', bad lines folding to error results \
                 without sinking their neighbours.")
  in
  let run obs schema_file stream files_from files =
    wrap (fun () ->
        let schema =
          match Jschema.Parse.of_string (read_input schema_file) with
          | Ok s -> s
          | Error m -> failwith ("bad schema: " ^ m)
        in
        (* The one checker, compiled exactly once before any fan-out;
           plans are immutable, so every lane shares it. *)
        let plan = Jschema.Validate.Plan.compile ~budget:obs.budget schema in
        let verdict check =
          if Obs.Metrics.span "phase.validate" check then "valid" else "INVALID"
        in
        (* the tree route's one per-document function *)
        let run_tree tree =
          verdict (fun () ->
              Jschema.Validate.Plan.run_tree ~budget:(obs.fresh_budget ()) plan
                tree)
        in
        let failures = ref 0 in
        let emit label result =
          if result <> "valid" then incr failures;
          Printf.printf "%s\t%s\n" label result
        in
        (match files_from with
        | Some list_path ->
          let cell_of path =
            Par.Batch.cell @@ fun () ->
            if not stream then run_tree (tree_of obs (read_input path))
            else
              (* one streamed document per file, read in
                 [Par.Batch.slice_bytes] slices and fed to the resumable
                 lexer: the document is never held in memory *)
              verdict @@ fun () ->
              with_input path (fun ic ->
                  let chunk = Bytes.create Par.Batch.slice_bytes in
                  let refill lx =
                    Obs.Metrics.incr "validate.feed.await";
                    let n = In_channel.input ic chunk 0 Par.Batch.slice_bytes in
                    if n = 0 then Jsont.Lexer.close lx
                    else begin
                      Obs.Metrics.incr "validate.feed.chunks";
                      Jsont.Lexer.feed lx chunk 0 n
                    end
                  in
                  Jschema.Validate.Plan.run_lexer ~budget:(obs.fresh_budget ())
                    plan
                    (Jsont.Lexer.create_feed ~refill ()))
          in
          let paths, cells = map_files obs list_path cell_of in
          Array.iter2 emit paths cells
        | None when stream ->
          let path = last_input files in
          with_input path
            (Par.Batch.lines ~jobs:obs.jobs ~chunk_bytes:Par.Batch.slice_bytes
               (fun line ->
                 Par.Batch.cell (fun () ->
                     verdict (fun () ->
                         Jschema.Validate.Plan.run_stream
                           ~budget:(obs.fresh_budget ()) plan line)))
               (fun lineno -> emit (Printf.sprintf "%s:%d" path lineno)))
        | None ->
          let path = last_input files in
          if not (print_rows obs path run_tree (( = ) "valid")) then
            incr failures);
        if !failures > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate documents against a JSON Schema")
    Term.(const run $ obs_term $ schema_arg $ stream $ files_from_arg
          $ input_arg)

(* ---- sat --------------------------------------------------------------------- *)

let sat_cmd =
  let run obs formula =
    wrap (fun () ->
        let phi =
          match Jlogic.Jnl.parse formula with
          | Ok f -> f
          | Error m -> failwith ("bad formula: " ^ m)
        in
        match Jlogic.Jnl_sat.satisfiable ~budget:obs.budget phi with
        | Error m -> failwith ("undecidable fragment: " ^ m)
        | Ok (Jlogic.Jautomaton.Sat witness) ->
          Printf.printf "satisfiable\n%s\n" (Jsont.Printer.pretty witness)
        | Ok Jlogic.Jautomaton.Unsat -> print_endline "unsatisfiable"
        | Ok (Jlogic.Jautomaton.Unknown m) ->
          Printf.printf "unknown (%s)\n" m;
          exit 2)
  in
  Cmd.v
    (Cmd.info "sat"
       ~doc:"Decide satisfiability of a JNL formula, printing a witness document")
    Term.(const run $ obs_term $ formula_pos)

(* ---- compat ------------------------------------------------------------------ *)

let compat_cmd =
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Old schema file.")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"New schema file.")
  in
  let run obs old_file new_file =
    wrap (fun () ->
        let load f =
          match Jschema.Parse.of_string (read_input f) with
          | Ok s -> Jschema.To_jsl.document s
          | Error m -> failwith (f ^ ": " ^ m)
        in
        let v1 = load old_file and v2 = load new_file in
        (match (v1.Jlogic.Jsl_rec.defs, v2.Jlogic.Jsl_rec.defs) with
        | [], [] -> ()
        | _ -> failwith "compat only supports non-recursive schemas");
        match
          Jlogic.Contain.schema_compatible ~budget:obs.budget
            ~old_:v1.Jlogic.Jsl_rec.base ~new_:v2.Jlogic.Jsl_rec.base ()
        with
        | Jlogic.Contain.No w ->
          Printf.printf "BREAKING: valid under OLD, rejected by NEW:\n%s\n"
            (Jsont.Printer.pretty w);
          exit 1
        | Jlogic.Contain.Yes ->
          print_endline "compatible: every OLD document validates under NEW"
        | Jlogic.Contain.Inconclusive m ->
          Printf.printf "unknown (%s)\n" m;
          exit 2)
  in
  Cmd.v
    (Cmd.info "compat"
       ~doc:"Detect breaking changes between two JSON Schemas (satisfiability of \
             OLD ∧ ¬NEW)")
    Term.(const run $ obs_term $ old_arg $ new_arg)

(* ---- examples ----------------------------------------------------------------- *)

let examples_cmd =
  let schema_arg =
    Arg.(required & opt (some string) None & info [ "s"; "schema" ] ~docv:"FILE"
           ~doc:"JSON Schema file.")
  in
  let count_arg =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N"
           ~doc:"How many example documents to generate.")
  in
  let run obs schema_file n =
    wrap (fun () ->
        let schema =
          match Jschema.Parse.of_string (read_input schema_file) with
          | Ok s -> Jschema.To_jsl.document s
          | Error m -> failwith ("bad schema: " ^ m)
        in
        if schema.Jlogic.Jsl_rec.defs <> [] then
          failwith "examples only supports non-recursive schemas";
        match
          Jlogic.Jsl_sat.models ~limit:n ~budget:obs.budget
            schema.Jlogic.Jsl_rec.base
        with
        | [], Some m ->
          Printf.printf "unknown (%s)\n" m;
          exit 2
        | [], None ->
          print_endline "no example found (schema unsatisfiable or search exhausted)";
          exit 1
        | ms, _ ->
          List.iter (fun v -> print_endline (Jsont.Printer.compact v)) ms)
  in
  Cmd.v
    (Cmd.info "examples"
       ~doc:"Generate distinct example documents validating against a schema")
    Term.(const run $ obs_term $ schema_arg $ count_arg)

(* ---- infer -------------------------------------------------------------------- *)

let infer_cmd =
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Close objects and bound numbers to the observed values.")
  in
  let run obs strict files =
    wrap (fun () ->
        let docs = collection_values obs (last_input files) in
        if docs = [] then failwith "no example documents";
        let mode = if strict then `Strict else `Loose in
        let schema = Jschema.Infer.infer_document ~mode docs in
        print_endline (Jsont.Printer.pretty (Jschema.Schema.to_value schema)))
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Infer a JSON Schema from example documents (JSON lines or an array)")
    Term.(const run $ obs_term $ strict $ input_arg)

(* ---- index ------------------------------------------------------------------- *)

let index_file_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX"
         ~doc:"Corpus index file (built by $(b,index build)).")

let no_verify_arg =
  Arg.(value & flag
       & info [ "no-verify" ]
           ~doc:"Skip the full body checksum at open (header, section \
                 extents and offset tables are always validated); opening \
                 cost drops to O(header + tables).")

let open_index ?verify_body path =
  match Jindex.Reader.open_ ?verify_body path with
  | Ok r -> r
  | Error m -> failwith m

let index_build_cmd =
  let corpus_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS"
           ~doc:"NDJSON corpus: one JSON document per line (blank lines \
                 skipped, like $(b,validate --stream)).")
  in
  let output_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Index file to write.")
  in
  let run obs corpus output =
    wrap (fun () ->
        match
          Jindex.Writer.build ~jobs:obs.jobs ~fresh_budget:obs.fresh_budget
            ~corpus ~output ()
        with
        | Error m -> failwith m
        | Ok s ->
          Printf.printf
            "indexed %d docs (%d parse errors), %d nodes, %d keys, %d \
             postings, %d values, %d value postings\n\
             wrote %s (%d bytes)\n"
            s.Jindex.Writer.docs s.errors s.nodes s.keys
            (s.key_postings + s.pos_postings)
            s.values s.value_postings output s.bytes)
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Ingest an NDJSON corpus once and write the persistent \
             label-postings index")
    Term.(const run $ obs_term $ corpus_pos $ output_arg)

let index_query_cmd =
  let formula_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FORMULA"
           ~doc:"A JNL formula, e.g. 'eq(.name.first, \"John\")'.")
  in
  let jsonpath_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonpath" ] ~docv:"PATH"
             ~doc:"Query with a JSONPath expression instead of a JNL \
                   formula: documents where $(docv) selects at least one \
                   node answer true.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"FILE"
             ~doc:"Override the corpus path recorded in the index (its \
                   size and bytes must still match what was indexed).")
  in
  let run obs index_file formula jsonpath corpus no_verify =
    wrap (fun () ->
        let phi =
          match (formula, jsonpath) with
          | Some f, None -> (
            match Jlogic.Jnl.parse f with
            | Ok f -> f
            | Error m -> failwith ("bad formula: " ^ m))
          | None, Some p -> (
            match Jquery.Jsonpath.parse p with
            | Ok alpha -> Jlogic.Jnl.Exists alpha
            | Error m -> failwith ("bad path: " ^ m))
          | Some _, Some _ -> failwith "give a FORMULA or --jsonpath, not both"
          | None, None -> failwith "a FORMULA or --jsonpath is required"
        in
        let r = open_index ~verify_body:(not no_verify) index_file in
        match
          Jindex.Query.run ~jobs:obs.jobs ?corpus
            ~fresh_budget:obs.fresh_budget r phi
        with
        | Error m -> failwith m
        | Ok verdicts ->
          Array.iteri
            (fun d v ->
              Printf.printf "%d\t%s\n"
                (Jindex.Reader.doc_lineno r d)
                (Jindex.Query.verdict_string v))
            verdicts)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer a JNL or JSONPath query over every indexed document \
             without reparsing the corpus, printing one \
             'line<TAB>verdict' per document")
    Term.(const run $ obs_term $ index_file_pos $ formula_arg $ jsonpath_arg
          $ corpus_arg $ no_verify_arg)

let index_info_cmd =
  let run index_file no_verify =
    wrap (fun () ->
        let r = open_index ~verify_body:(not no_verify) index_file in
        let errors = ref 0 in
        for d = 0 to Jindex.Reader.ndocs r - 1 do
          if Jindex.Reader.doc_err r d then incr errors
        done;
        Printf.printf "index: %s (%d bytes, format %s v%d)\n"
          (Jindex.Reader.path r)
          (Jindex.Reader.file_size r)
          Jindex.Layout.magic Jindex.Layout.version;
        Printf.printf "corpus: %s (%d bytes)\n"
          (Jindex.Reader.corpus_path r)
          (Jindex.Reader.corpus_len r);
        Printf.printf "documents: %d (%d parse errors)\n"
          (Jindex.Reader.ndocs r) !errors;
        Printf.printf "nodes: %d\n" (Jindex.Reader.nnodes r);
        Printf.printf "keys: %d\n" (Jindex.Reader.nkeys r);
        Printf.printf "key postings: %d\n" (Jindex.Reader.key_entries r);
        Printf.printf "position postings: %d (lists: %d)\n"
          (Jindex.Reader.pos_entries r) (Jindex.Reader.npos r);
        Printf.printf "values: %d (%d bytes)\n"
          (Jindex.Reader.nvals r) (Jindex.Reader.val_blob_len r);
        Printf.printf "value postings: %d (lists: %d)\n"
          (Jindex.Reader.val_entries r) (Jindex.Reader.npairs r))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print an index file's header summary")
    Term.(const run $ index_file_pos $ no_verify_arg)

let index_cmd =
  Cmd.group
    (Cmd.info "index"
       ~doc:"Build and query a persistent structure-aware index over an \
             NDJSON corpus")
    [ index_build_cmd; index_query_cmd; index_info_cmd ]

(* ---- serve / client ---------------------------------------------------------- *)

(* endpoint flags shared by [serve] and [client]; parsed under [wrap]
   so bad values render as the usual `error: …` + exit 1 *)
let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve on (or connect to) the Unix-domain socket $(docv).")

let tcp_arg =
  Arg.(value & opt (some string) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Serve on (or connect to) TCP $(docv) (numeric host; port 0 \
                 picks a free port).")

let endpoint_of ~socket ~tcp : Jserve.Server.endpoint =
  match (socket, tcp) with
  | Some path, None -> `Unix path
  | None, Some hp -> (
    match String.rindex_opt hp ':' with
    | Some i -> (
      let host = String.sub hp 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      let port = String.sub hp (i + 1) (String.length hp - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> `Tcp (host, p)
      | _ -> failwith ("bad port in --tcp " ^ hp))
    | None -> failwith ("bad --tcp " ^ hp ^ " (want HOST:PORT)"))
  | None, None -> failwith "one of --socket or --tcp is required"
  | Some _, Some _ -> failwith "--socket and --tcp are mutually exclusive"

let render_endpoint = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let serve_cmd =
  let cache_arg =
    Arg.(value & opt int 64
         & info [ "cache" ] ~docv:"N"
             ~doc:"Plan-cache capacity: compiled schemas kept resident, \
                   least-recently-used evicted beyond $(docv).")
  in
  let max_body_arg =
    Arg.(value & opt int (64 * 1024 * 1024)
         & info [ "max-body" ] ~docv:"BYTES"
             ~doc:"Largest declared schema/document body accepted.")
  in
  let run obs socket tcp cache_capacity max_body_bytes =
    wrap (fun () ->
        let listen = endpoint_of ~socket ~tcp in
        let cfg =
          { Jserve.Server.listen; jobs = obs.jobs; cache_capacity;
            max_body_bytes; fresh_budget = obs.fresh_budget }
        in
        let srv = Jserve.Server.create cfg in
        let stop _signal = Jserve.Server.request_stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        (* the ready line carries the actual endpoint (TCP port 0 is
           resolved), so scripts can parse it instead of polling *)
        Printf.printf "serving on %s\n%!"
          (render_endpoint (Jserve.Server.endpoint srv));
        Jserve.Server.run srv)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the validation daemon: a socket service that compiles each \
             schema once into a cached plan and streams request documents \
             through it")
    Term.(const run $ obs_term $ socket_arg $ tcp_arg $ cache_arg
          $ max_body_arg)

let client_cmd =
  let schema_arg =
    Arg.(value & opt (some string) None
         & info [ "s"; "schema" ] ~docv:"FILE"
             ~doc:"Validate documents against this JSON Schema file.")
  in
  let inline =
    Arg.(value & flag
         & info [ "inline" ]
             ~doc:"Send the schema bytes with every request (VALIDATEI) \
                   instead of registering it once — the daemon's plan cache \
                   still deduplicates by content hash.")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Treat the input as JSON lines and print one \
                   'path:line<TAB>result' per document, byte-identical to \
                   $(b,jsonlogic validate --stream).")
  in
  let index_arg =
    Arg.(value & opt (some string) None
         & info [ "index" ] ~docv:"FILE"
             ~doc:"Query the corpus index at server path $(docv) (requires \
                   --query); prints one 'line<TAB>verdict' per document, \
                   byte-identical to $(b,jsonlogic index query).")
  in
  let query_arg =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~docv:"FORMULA"
             ~doc:"The JNL formula an --index query answers.")
  in
  let ping_f =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe; prints 'pong'.")
  in
  let metrics_f =
    Arg.(value & flag
         & info [ "server-metrics" ]
             ~doc:"Print the daemon's serve counters as one JSON line.")
  in
  let flush_f =
    Arg.(value & flag
         & info [ "flush" ] ~doc:"Empty the daemon's plan cache first.")
  in
  let shutdown_f =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the daemon to stop (drains in-flight requests) after \
                   any other work this invocation does.")
  in
  let run socket tcp schema_file inline stream index query ping_f
      metrics_f flush_f shutdown_f files =
    wrap (fun () ->
        let endpoint = endpoint_of ~socket ~tcp in
        let c = Jserve.Client.connect endpoint in
        Fun.protect
          ~finally:(fun () -> Jserve.Client.close c)
          (fun () ->
            let unwrap = function Ok s -> s | Error m -> failwith m in
            if ping_f then print_endline (unwrap (Jserve.Client.ping c));
            if flush_f then ignore (unwrap (Jserve.Client.flush c));
            if metrics_f then
              print_endline (unwrap (Jserve.Client.metrics c));
            (match (index, query) with
            | Some idx, Some formula ->
              print_string (unwrap (Jserve.Client.index_query c ~index:idx formula))
            | Some _, None -> failwith "--index requires --query"
            | None, Some _ -> failwith "--query requires --index"
            | None, None -> ());
            (match schema_file with
            | None -> ()
            | Some sf ->
              let schema = read_input sf in
              let check =
                if inline then fun doc ->
                  Jserve.Client.validate_inline c ~schema doc
                else begin
                  let id = unwrap (Jserve.Client.put_schema c schema) in
                  fun doc -> Jserve.Client.validate c ~schema_id:id doc
                end
              in
              let verdict doc = unwrap (check doc) in
              let path = last_input files in
              let all_valid =
                if stream then begin
                  (* the same NDJSON reader as validate --stream: same
                     line numbers, same skipped blank lines *)
                  let failures = ref 0 in
                  with_input path
                    (Par.Batch.lines ~chunk_bytes:Par.Batch.slice_bytes verdict
                       (fun lineno r ->
                         if r <> "valid" then incr failures;
                         Printf.printf "%s:%d\t%s\n" path lineno r));
                  !failures = 0
                end
                else begin
                  let r = verdict (read_input path) in
                  print_endline r;
                  r = "valid"
                end
              in
              if not all_valid then begin
                if shutdown_f then ignore (unwrap (Jserve.Client.shutdown c));
                exit 1
              end);
            if shutdown_f then ignore (unwrap (Jserve.Client.shutdown c))))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running validation daemon: register schemas, validate \
             documents, read counters, or shut it down")
    Term.(const run $ socket_arg $ tcp_arg $ schema_arg $ inline
          $ stream $ index_arg $ query_arg $ ping_f $ metrics_f $ flush_f
          $ shutdown_f $ input_arg)

let () =
  let doc = "JSON data model, query logics and schema tools (Bourhis et al., PODS'17)" in
  let info = Cmd.info "jsonlogic" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; eval_cmd; select_cmd; find_cmd; aggregate_cmd;
            validate_cmd; sat_cmd; compat_cmd; examples_cmd; infer_cmd;
            index_cmd; serve_cmd; client_cmd ]))
