(* Tests for the validation daemon: protocol round-trips, plan-cache
   LRU behaviour, end-to-end agreement with the CLI verdict cells, and
   the fault-injection suite — truncated frames, oversized declared
   lengths, mid-document disconnects, pipelining, slowloris
   one-byte-at-a-time clients.  Every fault case asserts the daemon
   keeps answering other requests and leaks neither a connection slot
   nor a plan-cache entry. *)

let schema_text =
  {|{"type":"object","required":["a"],
     "properties":{"a":{"type":"number","minimum":1},
                   "tags":{"type":"array","items":{"type":"string"}}}}|}

let schema_text2 = {|{"type":"array","items":{"type":"number"}}|}

(* in-process daemon on a fresh socket path; jobs varies per test *)
let with_server ?(jobs = 1) ?(cache_capacity = 64) ?max_body_bytes f =
  let path =
    Filename.temp_file "jserve_test" ".sock"
  in
  Sys.remove path;
  let cfg = Jserve.Server.default_config (`Unix path) in
  let cfg =
    { cfg with
      Jserve.Server.jobs;
      cache_capacity;
      max_body_bytes =
        Option.value max_body_bytes
          ~default:cfg.Jserve.Server.max_body_bytes }
  in
  let srv = Jserve.Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Jserve.Server.stop srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f srv)

let with_client srv f =
  let c = Jserve.Client.connect (Jserve.Server.endpoint srv) in
  Fun.protect ~finally:(fun () -> Jserve.Client.close c) (fun () -> f c)

let unwrap = function
  | Ok s -> s
  | Error m -> Alcotest.failf "unexpected ERR: %s" m

let counter srv name =
  match List.assoc_opt name (Jserve.Server.counters srv) with
  | Some v -> v
  | None -> Alcotest.failf "no counter %s" name

(* the drain gate: accepted connections must all close after a fault *)
let await_drained srv =
  let deadline = Obs.Budget.now_mono () +. 5.0 in
  while
    Jserve.Server.active_connections srv > 0
    && Obs.Budget.now_mono () < deadline
  do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "no leaked connection" 0
    (Jserve.Server.active_connections srv)

(* ---- protocol -------------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [ Jserve.Protocol.Schema 12;
      Jserve.Protocol.Validate { schema_id = "abc123"; len = 0 };
      Jserve.Protocol.Validate_inline { schema_len = 3; doc_len = 4 };
      Jserve.Protocol.Index_query { path_len = 12; formula_len = 30 };
      Jserve.Protocol.Ping; Jserve.Protocol.Metrics; Jserve.Protocol.Flush;
      Jserve.Protocol.Shutdown ]
  in
  List.iter
    (fun r ->
      let line = Jserve.Protocol.render_request r in
      let n = String.length line in
      Alcotest.(check char) "newline-terminated" '\n' line.[n - 1];
      match Jserve.Protocol.parse_request (String.sub line 0 (n - 1)) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error m -> Alcotest.failf "roundtrip failed: %s" m)
    reqs;
  let bad l =
    match Jserve.Protocol.parse_request l with
    | Ok _ -> Alcotest.failf "accepted %S" l
    | Error _ -> ()
  in
  (* lengths are decimal digit runs: no OCaml literal syntax, no
     signs, no overflow *)
  bad "SCHEMA 0x1F";
  bad "SCHEMA 1_000";
  bad "SCHEMA -3";
  bad "SCHEMA +3";
  bad "SCHEMA 9999999999999999999999";
  bad "SCHEMA ";
  bad "SCHEMA";
  bad "VALIDATE  5";
  bad "NONSENSE 4";
  bad "";
  bad "INDEXQ 5";
  bad "INDEXQ 5 -3";
  bad "INDEXQ 0x5 7";
  (* DATA framing: header carries the exact payload byte count *)
  Alcotest.(check string) "data frame" "DATA 4\nabcd"
    (Jserve.Protocol.data "abcd");
  Alcotest.(check (option int)) "data header" (Some 4)
    (Jserve.Protocol.parse_data_header "DATA 4");
  Alcotest.(check (option int)) "not a data header" None
    (Jserve.Protocol.parse_data_header "OK pong");
  Alcotest.(check (option int)) "bad data length" None
    (Jserve.Protocol.parse_data_header "DATA -1");
  (* responses: one line, embedded breaks folded *)
  Alcotest.(check string) "folded" "OK a b\n" (Jserve.Protocol.ok "a\nb");
  Alcotest.(check (result string string)) "ok" (Ok "pong")
    (Jserve.Protocol.parse_response "OK pong");
  Alcotest.(check (result string string)) "result" (Ok "valid")
    (Jserve.Protocol.parse_response "RESULT valid");
  Alcotest.(check bool) "err" true
    (Result.is_error (Jserve.Protocol.parse_response "ERR boom"));
  Alcotest.(check bool) "garbage" true
    (Result.is_error (Jserve.Protocol.parse_response "HELLO"))

(* ---- plan cache ------------------------------------------------------------ *)

let test_plan_cache_lru () =
  let budget = Obs.Budget.create () in
  let plan_of text =
    match Jschema.Parse.of_string text with
    | Ok s -> Jschema.Validate.Plan.compile ~budget s
    | Error m -> Alcotest.fail m
  in
  let cache = Jserve.Plan_cache.create ~capacity:2 in
  let p = plan_of schema_text in
  let id i = Printf.sprintf "schema-%d" i in
  Jserve.Plan_cache.add cache (id 1) p;
  Jserve.Plan_cache.add cache (id 2) p;
  Alcotest.(check int) "two resident" 2 (Jserve.Plan_cache.size cache);
  (* touch 1 so 2 is the LRU victim *)
  Alcotest.(check bool) "hit 1" true
    (Jserve.Plan_cache.find cache (id 1) <> None);
  Jserve.Plan_cache.add cache (id 3) p;
  Alcotest.(check int) "capacity held" 2 (Jserve.Plan_cache.size cache);
  Alcotest.(check bool) "2 evicted" true
    (Jserve.Plan_cache.find cache (id 2) = None);
  Alcotest.(check bool) "1 survived" true
    (Jserve.Plan_cache.find cache (id 1) <> None);
  Alcotest.(check bool) "3 resident" true
    (Jserve.Plan_cache.find cache (id 3) <> None);
  let hits, misses, evictions = Jserve.Plan_cache.stats cache in
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "evictions" 1 evictions;
  Jserve.Plan_cache.flush cache;
  Alcotest.(check int) "flushed" 0 (Jserve.Plan_cache.size cache);
  (* content-hash ids: equal bytes, equal id; distinct bytes, distinct *)
  Alcotest.(check string) "id is deterministic"
    (Jserve.Plan_cache.id_of_schema schema_text)
    (Jserve.Plan_cache.id_of_schema schema_text);
  Alcotest.(check bool) "distinct bytes, distinct id" true
    (Jserve.Plan_cache.id_of_schema schema_text
    <> Jserve.Plan_cache.id_of_schema schema_text2)

(* ---- end-to-end ------------------------------------------------------------ *)

(* every verdict cell the CLI can produce, via both VALIDATE and
   VALIDATEI, against a live daemon *)
let test_serve_verdicts () =
  with_server (fun srv ->
      with_client srv (fun c ->
          Alcotest.(check string) "ping" "pong" (unwrap (Jserve.Client.ping c));
          let id = unwrap (Jserve.Client.put_schema c schema_text) in
          Alcotest.(check string) "id is the content hash"
            (Jserve.Plan_cache.id_of_schema schema_text)
            id;
          let v doc = unwrap (Jserve.Client.validate c ~schema_id:id doc) in
          Alcotest.(check string) "valid" "valid" (v {|{"a":1}|});
          Alcotest.(check string) "invalid" "INVALID" (v {|{"a":0}|});
          Alcotest.(check string) "deep invalid" "INVALID"
            (v {|{"a":5,"tags":["x",3]}|});
          let e = v "{bad" in
          Alcotest.(check bool) "parse error cell" true
            (String.length e > 6 && String.sub e 0 6 = "error:");
          (* inline path: same verdicts, and the same cached plan *)
          let vi doc =
            unwrap (Jserve.Client.validate_inline c ~schema:schema_text doc)
          in
          Alcotest.(check string) "inline valid" "valid" (vi {|{"a":2}|});
          Alcotest.(check string) "inline invalid" "INVALID" (vi {|{"a":0}|});
          Alcotest.(check int) "one plan, content-addressed" 1
            (Jserve.Plan_cache.size (Jserve.Server.cache srv));
          (* unknown id: ERR but the connection keeps serving *)
          (match Jserve.Client.validate c ~schema_id:"feedface" {|{"a":1}|} with
          | Error _ -> ()
          | Ok v -> Alcotest.failf "unknown id answered %s" v);
          Alcotest.(check string) "still serving" "valid" (v {|{"a":7}|});
          (* bad schema: ERR per attempt, never cached *)
          (match Jserve.Client.put_schema c {|{"type":"nope"}|} with
          | Error _ -> ()
          | Ok id -> Alcotest.failf "bad schema got id %s" id);
          Alcotest.(check int) "failure not cached" 1
            (Jserve.Plan_cache.size (Jserve.Server.cache srv))))

(* the daemon's verdict must equal the CLI stream checker's on the
   same bytes — including error spelling *)
let test_serve_cli_agreement () =
  let malformed =
    [ {|{"a":1|}; {|{bad|}; {|12 34|}; ""; "{"; {|{"sku":|}; "[1,2"; "tru";
      {|{"sku":01}|} ]
  in
  let docs =
    [ {|{"a":1}|}; {|{"a":0}|}; {|{"a":true}|}; {|{"a":1,"tags":[]}|};
      {|{"a":1,"tags":["x","y"]}|}; {|{"a":1,"tags":[1]}|}; {|[1,2]|} ]
  in
  let rng = Jworkload.Prng.create 77 in
  let catalog_docs =
    List.init 40 (fun _ ->
        Jsont.Value.to_string (Jworkload.Catalog.catalog_doc rng))
  in
  with_server ~jobs:2 (fun srv ->
      with_client srv (fun c ->
          List.iter
            (fun (schema_text, docs) ->
              let plan =
                match Jschema.Parse.of_string schema_text with
                | Ok s -> Jschema.Validate.Plan.compile s
                | Error m -> Alcotest.fail m
              in
              let cli_cell doc =
                match
                  Jsont.Parser.wrap (fun () ->
                      Jschema.Validate.Plan.run_stream
                        ~budget:(Obs.Budget.create ()) plan doc)
                with
                | Ok true -> "valid"
                | Ok false -> "INVALID"
                | Error e ->
                  "error: " ^ Format.asprintf "%a" Jsont.Parser.pp_error e
              in
              let id = unwrap (Jserve.Client.put_schema c schema_text) in
              List.iter
                (fun doc ->
                  let daemon =
                    unwrap (Jserve.Client.validate c ~schema_id:id doc)
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "agreement on %S" doc)
                    (cli_cell doc) daemon)
                (docs @ malformed))
            [ (schema_text, docs);
              (Jworkload.Catalog.catalog_schema, catalog_docs) ]))

(* ---- INDEXQ: corpus-index queries through the daemon ------------------------ *)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let indexq_corpus () =
  let rng = Jworkload.Prng.create 11 in
  let buf = Buffer.create 4096 in
  for i = 1 to 20 do
    Buffer.add_string buf
      (Jsont.Printer.compact (Jworkload.Gen_json.api_record rng (1 + (i mod 3))));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "{\"broken\": \n";
  Buffer.add_string buf "7\n";
  let corpus = Filename.temp_file "jserve_indexq" ".ndjson" in
  let idx = Filename.temp_file "jserve_indexq" ".idx" in
  write_file corpus (Buffer.contents buf);
  (match Jindex.Writer.build ~corpus ~output:idx () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("index build failed: " ^ m));
  (corpus, idx)

(* the payload one INDEXQ must answer: exactly the `index query` CLI
   rows over the same reader *)
let indexq_expect idx formula =
  let r =
    match Jindex.Reader.open_ idx with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  match Jindex.Query.run r (Jlogic.Jnl.parse_exn formula) with
  | Error m -> Alcotest.fail m
  | Ok verdicts ->
    let b = Buffer.create 256 in
    Array.iteri
      (fun d v ->
        Buffer.add_string b
          (Printf.sprintf "%d\t%s\n"
             (Jindex.Reader.doc_lineno r d)
             (Jindex.Query.verdict_string v)))
      verdicts;
    Buffer.contents b

let test_indexq_end_to_end () =
  let corpus, idx = indexq_corpus () in
  with_server (fun srv ->
      with_client srv (fun c ->
          List.iter
            (fun formula ->
              Alcotest.(check string)
                ("payload agreement on " ^ formula)
                (indexq_expect idx formula)
                (unwrap (Jserve.Client.index_query c ~index:idx formula)))
            [ "eq(.name.first, \"John\")"; "<.orders[0].lines[0].sku>";
              "eq(eps, 7)"; "true"; "<.hobbies[-1]>" ];
          (* the reader cache: one open, the rest hits *)
          Alcotest.(check int) "one open" 1 (counter srv "serve.indexq.opens");
          Alcotest.(check int) "four cache hits" 4
            (counter srv "serve.indexq.open_hits");
          Alcotest.(check int) "requests counted" 5
            (counter srv "serve.indexq.requests");
          Alcotest.(check bool) "docs counted" true
            (counter srv "serve.indexq.docs" > 0);
          (* a rebuilt index (same path, new bytes) is re-opened, not
             answered from the stale mapping *)
          Unix.sleepf 0.02;
          write_file corpus "{\"a\":1}\n{\"a\":2}\n";
          (match Jindex.Writer.build ~corpus ~output:idx () with
          | Ok _ -> ()
          | Error m -> Alcotest.fail ("rebuild failed: " ^ m));
          Alcotest.(check string) "rebuilt index answers fresh"
            (indexq_expect idx "<.a>")
            (unwrap (Jserve.Client.index_query c ~index:idx "<.a>"));
          Alcotest.(check int) "re-open counted" 2
            (counter srv "serve.indexq.opens")));
  Sys.remove corpus;
  Sys.remove idx

(* the same INDEXQ twice on one daemon: the cached reader answers the
   malformed line's cell the second time, and not a byte may differ *)
let test_indexq_repeat () =
  let corpus, idx = indexq_corpus () in
  with_server (fun srv ->
      with_client srv (fun c ->
          List.iter
            (fun formula ->
              let ask () =
                unwrap (Jserve.Client.index_query c ~index:idx formula)
              in
              let first = ask () in
              Alcotest.(check string) ("first answer on " ^ formula)
                (indexq_expect idx formula) first;
              Alcotest.(check string) ("second answer on " ^ formula) first
                (ask ()))
            [ "eq(.name.first, \"John\")"; "<.orders[0].lines[0].sku>";
              "true"; "eq(.name.first, .name.last)" ]));
  Sys.remove corpus;
  Sys.remove idx

(* INDEXQ faults: each answers ERR and the connection keeps serving *)
let test_indexq_faults () =
  let corpus, idx = indexq_corpus () in
  with_server (fun srv ->
      with_client srv (fun c ->
          let expect_err what r =
            match r with
            | Error m ->
              Alcotest.(check bool) (what ^ " message: " ^ m) true
                (String.length m > 0)
            | Ok v -> Alcotest.failf "%s answered %S" what v
          in
          expect_err "missing index"
            (Jserve.Client.index_query c ~index:"/no/such/index.idx" "true");
          expect_err "bad formula"
            (Jserve.Client.index_query c ~index:idx "eq(.name,");
          expect_err "not an index"
            (Jserve.Client.index_query c ~index:corpus "true");
          (* the connection survived all three *)
          Alcotest.(check string) "still serving" "pong"
            (unwrap (Jserve.Client.ping c));
          (* a stale corpus (changed after build) is refused per query *)
          Out_channel.with_open_gen
            [ Open_append; Open_binary ] 0o644 corpus
            (fun oc -> Out_channel.output_string oc "{\"x\":1}\n");
          expect_err "stale corpus"
            (Jserve.Client.index_query c ~index:idx "true");
          Alcotest.(check string) "alive after stale refusal" "pong"
            (unwrap (Jserve.Client.ping c))));
  Sys.remove corpus;
  Sys.remove idx

let test_serve_parallel_connections () =
  with_server ~jobs:4 (fun srv ->
      let id = Jserve.Plan_cache.id_of_schema schema_text in
      with_client srv (fun c ->
          ignore (unwrap (Jserve.Client.put_schema c schema_text)));
      let worker k () =
        with_client srv (fun c ->
            List.init 25 (fun i ->
                let doc = Printf.sprintf {|{"a":%d}|} ((k + i) mod 3) in
                let expect = if (k + i) mod 3 >= 1 then "valid" else "INVALID" in
                (expect, unwrap (Jserve.Client.validate c ~schema_id:id doc))))
      in
      let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
      let results = List.concat_map Domain.join domains in
      List.iter
        (fun (expect, got) -> Alcotest.(check string) "verdict" expect got)
        results;
      await_drained srv;
      let hits, misses, _ = Jserve.Plan_cache.stats (Jserve.Server.cache srv) in
      Alcotest.(check int) "every request hit the one plan" 100 hits;
      Alcotest.(check int) "one miss (registration)" 1 misses)

(* ---- fault injection ------------------------------------------------------- *)

(* body shorter than declared, then EOF: no response owed, no leak *)
let test_fault_truncated_body () =
  with_server (fun srv ->
      with_client srv (fun c ->
          Jserve.Client.send_raw c "SCHEMA 100\n{\"type\":";
          ());
      (* close happened with 100 bytes promised, ~8 delivered *)
      await_drained srv;
      (* the daemon still serves fresh connections *)
      with_client srv (fun c ->
          Alcotest.(check string) "alive" "pong"
            (unwrap (Jserve.Client.ping c)));
      Alcotest.(check int) "no plan from a truncated schema" 0
        (Jserve.Plan_cache.size (Jserve.Server.cache srv)))

let test_fault_truncated_header () =
  with_server (fun srv ->
      with_client srv (fun c -> Jserve.Client.send_raw c "VALIDATE abc");
      (* EOF mid-line: dropped silently *)
      await_drained srv;
      with_client srv (fun c ->
          Alcotest.(check string) "alive" "pong"
            (unwrap (Jserve.Client.ping c))))

let test_fault_overlong_header () =
  with_server (fun srv ->
      with_client srv (fun c ->
          match
            Jserve.Client.send_raw c (String.make 4096 'A');
            Jserve.Client.send_raw c "\n";
            Jserve.Client.recv c
          with
          | exception Jserve.Client.Server_gone ->
            (* the drop may land while we are still writing *)
            ()
          | Ok v -> Alcotest.failf "overlong header answered OK %s" v
          | Error _ ->
            (* an ERR before the drop is acceptable too *)
            ());
      await_drained srv;
      with_client srv (fun c ->
          Alcotest.(check string) "alive" "pong"
            (unwrap (Jserve.Client.ping c))))

(* declared length over max-body: ERR answered, connection dropped,
   later connections unaffected *)
let test_fault_oversized_length () =
  with_server ~max_body_bytes:1024 (fun srv ->
      with_client srv (fun c ->
          Jserve.Client.send c (Jserve.Protocol.Schema 1_000_000) ~body:[];
          (match Jserve.Client.recv c with
          | Error m ->
            Alcotest.(check bool) "names the ceiling" true
              (String.length m > 0)
          | Ok v -> Alcotest.failf "oversized length answered %s" v);
          (* the connection is dropped: next read sees EOF *)
          match Jserve.Client.recv c with
          | exception Jserve.Client.Server_gone -> ()
          | _ -> Alcotest.fail "connection survived an undrainable frame");
      await_drained srv;
      with_client srv (fun c ->
          Alcotest.(check string) "alive" "pong"
            (unwrap (Jserve.Client.ping c))))

(* disconnect mid-document while the lexer is mid-value: the worker
   must unwind without leaking the slot *)
let test_fault_mid_document_disconnect () =
  with_server ~jobs:2 (fun srv ->
      with_client srv (fun c ->
          ignore (unwrap (Jserve.Client.put_schema c schema_text)));
      let id = Jserve.Plan_cache.id_of_schema schema_text in
      with_client srv (fun c ->
          Jserve.Client.send_raw c
            (Printf.sprintf "VALIDATE %s 100000\n" id);
          (* stream a prefix of a huge array, then vanish *)
          Jserve.Client.send_raw c {|{"a":1,"tags":["x","x","x|});
      await_drained srv;
      with_client srv (fun c ->
          Alcotest.(check string) "alive" "valid"
            (unwrap (Jserve.Client.validate c ~schema_id:id {|{"a":1}|}))))

(* several requests written back-to-back before any response is read:
   answers come back in order, one per request *)
let test_fault_pipelined_requests () =
  with_server (fun srv ->
      with_client srv (fun c ->
          let schema = schema_text in
          Jserve.Client.send c
            (Jserve.Protocol.Schema (String.length schema))
            ~body:[ schema ];
          let id = Jserve.Plan_cache.id_of_schema schema in
          let docs = [ {|{"a":1}|}; {|{"a":0}|}; {|{"a":9}|}; "{oops" ] in
          List.iter
            (fun doc ->
              Jserve.Client.send c
                (Jserve.Protocol.Validate
                   { schema_id = id; len = String.length doc })
                ~body:[ doc ])
            docs;
          Jserve.Client.send c Jserve.Protocol.Ping ~body:[];
          Alcotest.(check string) "schema ack" id (unwrap (Jserve.Client.recv c));
          Alcotest.(check string) "1st" "valid" (unwrap (Jserve.Client.recv c));
          Alcotest.(check string) "2nd" "INVALID" (unwrap (Jserve.Client.recv c));
          Alcotest.(check string) "3rd" "valid" (unwrap (Jserve.Client.recv c));
          let e = unwrap (Jserve.Client.recv c) in
          Alcotest.(check bool) "4th is an error cell" true
            (String.length e > 6 && String.sub e 0 6 = "error:");
          Alcotest.(check string) "ping last" "pong"
            (unwrap (Jserve.Client.recv c))))

(* a well-behaved but very slow client: the whole request arrives one
   byte at a time, and must still validate *)
let test_fault_slowloris () =
  with_server (fun srv ->
      with_client srv (fun c ->
          let doc = {|{"a":1,"tags":["slow"]}|} in
          let frame =
            Jserve.Protocol.render_request
              (Jserve.Protocol.Validate_inline
                 { schema_len = String.length schema_text;
                   doc_len = String.length doc })
            ^ schema_text ^ doc
          in
          String.iter
            (fun ch -> Jserve.Client.send_raw c (String.make 1 ch))
            frame;
          Alcotest.(check string) "slowloris verdict" "valid"
            (unwrap (Jserve.Client.recv c))))

(* A hostile-sized SCHEMA: about 1 MB with tens of thousands of
   definitions, each referenced from one property.  Reading it in is
   linear, so it is answered [OK <id>] well inside the bound; a list
   scan per key or per definition holds the lane for about forty
   seconds. *)
let test_fault_wide_schema () =
  let n = 20_000 in
  let b = Buffer.create (n * 60) in
  Buffer.add_string b {|{"definitions":{|};
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"d%d":{"minimum":%d}|} i (i mod 9)
  done;
  Buffer.add_string b {|},"properties":{|};
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"p%d":{"$ref":"#/definitions/d%d"}|} i i
  done;
  Buffer.add_string b "}}";
  let schema = Buffer.contents b in
  Alcotest.(check bool) "about a megabyte" true (String.length schema > 1_000_000);
  with_server (fun srv ->
      with_client srv (fun c ->
          let t0 = Obs.Budget.now_mono () in
          let id = unwrap (Jserve.Client.put_schema c schema) in
          let secs = Obs.Budget.now_mono () -. t0 in
          Alcotest.(check string) "id is the content hash"
            (Jserve.Plan_cache.id_of_schema schema) id;
          if secs > 5.0 then
            Alcotest.failf "SCHEMA of %d bytes answered in %.2f s (bound 5 s)"
              (String.length schema) secs;
          Alcotest.(check string) "valid under the wide schema" "valid"
            (unwrap (Jserve.Client.validate c ~schema_id:id {|{"p7":7,"p19999":8}|}));
          Alcotest.(check string) "invalid under the wide schema" "INVALID"
            (unwrap (Jserve.Client.validate c ~schema_id:id {|{"p8":7}|}));
          Alcotest.(check string) "still serving" "pong"
            (unwrap (Jserve.Client.ping c))))

(* SHUTDOWN drains: a request in flight on another connection finishes
   before the daemon exits *)
let test_shutdown_drains () =
  (* 3 lanes = 2 connection workers: the blocked in-flight request
     must not starve the connection carrying the SHUTDOWN *)
  with_server ~jobs:3 (fun srv ->
      let id =
        with_client srv (fun c ->
            unwrap (Jserve.Client.put_schema c schema_text))
      in
      let slow = Jserve.Client.connect (Jserve.Server.endpoint srv) in
      Fun.protect
        ~finally:(fun () -> Jserve.Client.close slow)
        (fun () ->
          let doc = {|{"a":1}|} in
          Jserve.Client.send_raw slow
            (Printf.sprintf "VALIDATE %s %d\n" id (String.length doc));
          (* body not yet sent: the request is in flight once the
             daemon has read the header — wait for that, or the stop
             boundary may close what still looks like an idle
             connection *)
          let requests () =
            List.assoc "serve.requests" (Jserve.Server.counters srv)
          in
          let rec await n =
            if requests () < 2 && n > 0 then begin
              Unix.sleepf 0.005;
              await (n - 1)
            end
          in
          await 400;
          with_client srv (fun c ->
              Alcotest.(check string) "bye" "bye"
                (unwrap (Jserve.Client.shutdown c)));
          (* daemon is stopping; the in-flight request must still
             complete once its body lands *)
          Jserve.Client.send_raw slow doc;
          Alcotest.(check string) "drained verdict" "valid"
            (unwrap (Jserve.Client.recv slow));
          Jserve.Server.stop srv;
          Alcotest.(check int) "all connections closed" 0
            (Jserve.Server.active_connections srv)))

(* The serve.* atomics reach the registry as the daemon's run returns,
   and so do the counts its connection lanes record: at jobs 2 those
   run on pool domains, and still reach the dump. *)
let test_counters_folded () =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      List.iter
        (fun jobs ->
          Obs.Metrics.reset ();
          let docs = [ ({|{"a":1}|}, "valid"); ({|{"a":0}|}, "INVALID") ] in
          with_server ~jobs (fun srv ->
              with_client srv (fun c ->
                  ignore (unwrap (Jserve.Client.ping c));
                  let id = unwrap (Jserve.Client.put_schema c schema_text) in
                  List.iter
                    (fun (doc, verdict) ->
                      Alcotest.(check string) "verdict" verdict
                        (unwrap (Jserve.Client.validate c ~schema_id:id doc)))
                    docs);
              (* live counters before shutdown *)
              Alcotest.(check int) "requests counted"
                (2 + List.length docs)
                (counter srv "serve.requests");
              Alcotest.(check int) "one connection" 1
                (counter srv "serve.connections");
              Alcotest.(check bool) "bytes counted" true
                (counter srv "serve.bytes_in" > 0));
          (* stop joined every domain the daemon ran on *)
          let dump = Obs.Metrics.dump_text () in
          let contains needle =
            let nl = String.length needle and hl = String.length dump in
            let rec go i =
              i + nl <= hl && (String.sub dump i nl = needle || go (i + 1))
            in
            go 0
          in
          let label what = Printf.sprintf "%s (jobs %d)" what jobs in
          Alcotest.(check bool) (label "serve.requests in dump") true
            (contains "serve.requests");
          Alcotest.(check int) (label "one stream run per document")
            (List.length docs)
            (Obs.Metrics.counter_value "validate.stream.runs");
          Alcotest.(check bool) (label "parse.values counted") true
            (Obs.Metrics.counter_value "parse.values" > 0))
        [ 1; 2 ])

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request/response roundtrip" `Quick
            test_protocol_roundtrip ] );
      ( "plan cache",
        [ Alcotest.test_case "lru + stats + content hash" `Quick
            test_plan_cache_lru ] );
      ( "end-to-end",
        [ Alcotest.test_case "verdict cells" `Quick test_serve_verdicts;
          Alcotest.test_case "cli agreement" `Quick test_serve_cli_agreement;
          Alcotest.test_case "parallel connections" `Quick
            test_serve_parallel_connections;
          Alcotest.test_case "indexq end-to-end" `Quick test_indexq_end_to_end;
          Alcotest.test_case "indexq answered twice" `Quick test_indexq_repeat;
          Alcotest.test_case "indexq faults" `Quick test_indexq_faults;
          Alcotest.test_case "counters folded" `Quick test_counters_folded ] );
      ( "faults",
        [ Alcotest.test_case "truncated body" `Quick test_fault_truncated_body;
          Alcotest.test_case "truncated header" `Quick
            test_fault_truncated_header;
          Alcotest.test_case "overlong header" `Quick
            test_fault_overlong_header;
          Alcotest.test_case "oversized declared length" `Quick
            test_fault_oversized_length;
          Alcotest.test_case "mid-document disconnect" `Quick
            test_fault_mid_document_disconnect;
          Alcotest.test_case "pipelined requests" `Quick
            test_fault_pipelined_requests;
          Alcotest.test_case "slowloris" `Quick test_fault_slowloris;
          Alcotest.test_case "wide schema" `Quick test_fault_wide_schema;
          Alcotest.test_case "shutdown drains in-flight" `Quick
            test_shutdown_drains ] ) ]
