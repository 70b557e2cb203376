(* Workload [serve]: an in-process daemon on a Unix socket (accept loop
   plus two connection lanes) and two closed-loop client connections on
   two domains.  The only workload through the protocol, the sockets,
   dispatch and the plan cache, whose working set is deliberately
   larger than the cache. *)

module Prng = Jworkload.Prng
module Plan = Jschema.Validate.Plan
module Client = Jserve.Client

type kind = Warm | Cold | Indexq | Malformed | Fault

let kind_name = function
  | Warm -> "validate_warm"
  | Cold -> "validate_cold"
  | Indexq -> "indexq"
  | Malformed -> "malformed"
  | Fault -> "fault"

(* 50 slots: 40 warm VALIDATE, 6 VALIDATEI, 2 INDEXQ, one malformed
   document and one malformed inline schema (the only slot where [ERR]
   is the right answer). *)
let pattern =
  Array.init 50 (fun i ->
      if i mod 25 = 12 then Indexq
      else if i = 24 then Malformed
      else if i = 49 then Fault
      else if i mod 8 = 3 then Cold
      else Warm)

let n_cold_schemas = 96 (* > the daemon's 64-entry plan cache *)

(* The VALIDATEI schemas: catalog variants differing in minProperties,
   so each is a distinct cache entry and a full compile. *)
let cold_schema k =
  Ctx.replace_first Jworkload.Catalog.catalog_schema ~sub:{|"minProperties":10|}
    ~by:(Printf.sprintf {|"minProperties":%d|} (40 + k))

let malformed = [| "{"; "{\"sku\":"; "[1,2"; "tru"; "12 34"; ""; "{\"sku\":01}" |]
let bad_schema = {|{"type":|}
let formulas =
  [| "<.name.first>"; "eq(.age, 42)"; "<.orders[0:*]?(eq(.status, \"shipped\"))>"; "<.hobbies[-1]>" |]

type input = {
  schema : string;
  docs : string array;  (* warm pool; the first [n_cold_docs] also go cold *)
  n_cold_docs : int;
  cold : string array;
  corpus : string;
  expect_warm : string array;
  expect_cold : string array array;  (* schema k, doc j *)
  expect_malformed : string array;
  index : string;
  mutable expect_indexq : string array;
}

let generate (ctx : Ctx.t) =
  let rng = Prng.create ((ctx.seed * 4099) + 11) in
  let n_docs, n_cold_docs, target =
    match ctx.size with Ctx.Full -> (200, 16, 150_000) | Ctx.Tiny -> (20, 4, 30_000)
  in
  let docs = Array.init n_docs (fun _ -> Jsont.Value.to_string (Jworkload.Catalog.catalog_doc rng)) in
  let schema = Jworkload.Catalog.catalog_schema in
  let plan = Plan.compile (Jschema.Parse.of_string_exn schema) in
  let cold = Array.init n_cold_schemas cold_schema in
  let lines, _ = W_corpus.corpus_lines rng ~target in
  let corpus = Ctx.path ctx "serve.ndjson" in
  W_corpus.write_corpus corpus lines;
  let expect_warm = Array.map (Ctx.stream_cell plan) docs in
  if ctx.corrupt then expect_warm.(0) <- Ctx.flip_cell expect_warm.(0);
  { schema; docs; n_cold_docs; cold; corpus; expect_warm;
    expect_cold =
      Array.map
        (fun s ->
          let p = Plan.compile (Jschema.Parse.of_string_exn s) in
          Array.init n_cold_docs (fun j -> Ctx.stream_cell p docs.(j)))
        cold;
    expect_malformed = Array.map (Ctx.stream_cell plan) malformed;
    index = Ctx.path ctx "serve.idx";
    expect_indexq = [||] }

(* The INDEXQ payload the CLI prints, computed in process. *)
let indexq_payload index formula =
  match Jindex.Reader.open_ index with
  | Error m -> failwith m
  | Ok r ->
    let rows =
      match Jindex.Query.run ~jobs:1 r (Jlogic.Jnl.parse_exn formula) with
      | Error m -> failwith m
      | Ok v ->
        String.concat ""
          (Array.to_list
             (Array.mapi
                (fun d x ->
                  Printf.sprintf "%d\t%s\n" (Jindex.Reader.doc_lineno r d)
                    (Jindex.Query.verdict_string x))
                v))
    in
    Jindex.Reader.close r;
    rows

(* Daemon start, index build and schema registration: [setup_s]. *)
let start (ctx : Ctx.t) inp =
  let sock = Ctx.path ctx "d.sock" in
  let cfg = Jserve.Server.default_config (`Unix sock) in
  let srv = Jserve.Server.start { cfg with Jserve.Server.jobs = 1 + Ctx.jobs } in
  (match Jindex.Writer.build ~jobs:Ctx.jobs ~corpus:inp.corpus ~output:inp.index () with
  | Ok _ -> ()
  | Error m -> failwith ("index build failed: " ^ m));
  let c = Client.connect (Jserve.Server.endpoint srv) in
  let id =
    match Client.put_schema c inp.schema with Ok id -> id | Error m -> failwith m
  in
  Client.close c;
  (srv, id)

(* One client's state across the segments of a phase. *)
type client = {
  who : int;
  rng : Prng.t;
  mutable n : int;  (* requests sent *)
  mutable bad : int;
  mutable lat : float list;  (* per request, ms *)
}

(* One closed-loop connection until [deadline]. *)
let client inp endpoint schema_id ~deadline ~cold_next ~parent cl =
  let c = Client.connect endpoint in
  let who = cl.who and rng = cl.rng and n = ref cl.n in
  while Ctx.now () < deadline do
    let kind = pattern.((!n + (who * 25)) mod Array.length pattern) in
    let call () =
      match kind with
      | Warm ->
        let j = Prng.int rng (Array.length inp.docs) in
        (Client.validate c ~schema_id inp.docs.(j), Ok inp.expect_warm.(j))
      | Cold ->
        let k = Atomic.fetch_and_add cold_next 1 mod n_cold_schemas in
        let j = Prng.int rng inp.n_cold_docs in
        (Client.validate_inline c ~schema:inp.cold.(k) inp.docs.(j), Ok inp.expect_cold.(k).(j))
      | Indexq ->
        let f = Prng.int rng (Array.length formulas) in
        (Client.index_query c ~index:inp.index formulas.(f), Ok inp.expect_indexq.(f))
      | Malformed ->
        let j = Prng.int rng (Array.length malformed) in
        (Client.validate c ~schema_id malformed.(j), Ok inp.expect_malformed.(j))
      | Fault -> (Client.validate_inline c ~schema:bad_schema inp.docs.(0), Error "")
    in
    let (got, expected), dt =
      Span.run ~parent ~id:((who * 1_000_000) + !n) ~work:1 ("jserve." ^ kind_name kind) (fun () ->
          Ctx.timed call)
    in
    let ok =
      match (got, expected) with
      | Ok g, Ok e -> g = e
      | Error _, Error _ -> true
      | _ -> false
    in
    if not ok then cl.bad <- cl.bad + 1;
    cl.lat <- (dt *. 1e3) :: cl.lat;
    incr n
  done;
  cl.n <- !n;
  Client.close c

(* Both connections for [seconds], in one-second segments with a
   calibration slice between them when [calibrate]; requests/s over the
   segments' wall time, and every latency. *)
let drive ?(calibrate = false) (ctx : Ctx.t) inp srv schema_id seconds =
  let endpoint = Jserve.Server.endpoint srv in
  let cold_next = Atomic.make 0 in
  let parent = Span.current () in
  let clients =
    List.init Ctx.jobs (fun who ->
        { who; rng = Prng.create ((ctx.seed * 257) + who); n = 0; bad = 0; lat = [] })
  in
  let t_end = Ctx.now () +. seconds and wall = ref 0. in
  let rec segment () =
    let t0 = Ctx.now () in
    let deadline = Float.min t_end (t0 +. 1.0) in
    List.map
      (fun cl ->
        Domain.spawn (fun () -> client inp endpoint schema_id ~deadline ~cold_next ~parent cl))
      clients
    |> List.iter Domain.join;
    wall := !wall +. (Ctx.now () -. t0);
    if calibrate then Calib.slice ();
    if Ctx.now () < t_end then segment ()
  in
  segment ();
  let requests = List.fold_left (fun a cl -> a + cl.n) 0 clients in
  Report.checked requests ~bad:(List.fold_left (fun a cl -> a + cl.bad) 0 clients);
  (float_of_int requests /. !wall, Array.of_list (List.concat_map (fun cl -> cl.lat) clients))

let describe inp =
  Report.line "# serve input: %d warm documents, %d VALIDATEI schemas x %d documents, %d-formula index"
    (Array.length inp.docs) (Array.length inp.cold) inp.n_cold_docs (Array.length formulas)

let e2e (ctx : Ctx.t) =
  let inp = generate ctx in
  describe inp;
  let setup = Ctx.setup (fun () -> start ctx inp) in
  let srv, schema_id =
    Ctx.set_up_before setup ~reps:5 ~wall:2.0 ~cleanup:(fun (srv, _) -> Jserve.Server.stop srv)
  in
  let setup_s, reps = Ctx.setup_s setup in
  Fun.protect ~finally:(fun () -> Jserve.Server.stop srv) @@ fun () ->
  inp.expect_indexq <- Array.map (indexq_payload inp.index) formulas;
  ignore (drive ctx inp srv schema_id 0.3);
  let rps, all = drive ~calibrate:true ctx inp srv schema_id ctx.seconds in
  let p50 = Report.median all in
  Report.metric "setup_s" "s" setup_s ~n:reps ~note:"(median daemon start + index build + SCHEMA)";
  Report.metric "requests_per_s" "req/s" rps ~n:(Array.length all) ~note:"(two closed-loop connections)";
  Report.metric "request_p50_ms" "ms" p50 ~n:(Array.length all);
  Report.tail_metric ~prefix:"request" ~unit_:"ms" all;
  Calib.emit ~setup_s ~throughput:rps ~p50

(* ---- traced run ---------------------------------------------------- *)

let layers (ctx : Ctx.t) ~primary =
  let inp = generate ctx in
  describe inp;
  let srv, schema_id = start ctx inp in
  Fun.protect ~finally:(fun () -> Jserve.Server.stop srv) @@ fun () ->
  inp.expect_indexq <- Array.map (indexq_payload inp.index) formulas;
  ignore (drive ctx inp srv schema_id 0.3);
  let untraced, _ = drive ctx inp srv schema_id primary in
  Trace.enable true;
  let counter name = List.assoc name (Jserve.Server.counters srv) in
  let c0 = Jserve.Server.counters srv in
  let delta name = counter name - List.assoc name c0 in
  let traced, _ = drive ctx inp srv schema_id primary in
  Trace.overhead "serve" ~untraced ~traced;
  (* the in-process executor on the warm documents *)
  let plan = Plan.compile (Jschema.Parse.of_string_exn inp.schema) in
  for _ = 1 to 3 do
    Array.iteri
      (fun j d ->
        ignore (Span.run ~id:j ~work:1 "jschema.run_stream.serve" (fun () -> Ctx.stream_cell plan d)))
      inp.docs
  done;
  let spans = Span.all () in
  let p50 name = Report.median (Span.durations_ms name spans) in
  let warm = p50 "jserve.validate_warm" in
  List.iter
    (fun k ->
      let d = Span.durations_ms ("jserve." ^ kind_name k) spans in
      Trace.layer ~n:(Array.length d) (Printf.sprintf "jserve.%s_p50_ms" (kind_name k)) "ms"
        (Report.median d))
    [ Warm; Cold; Indexq ];
  Trace.layer "jserve.overhead_us" "us" ((warm -. p50 "jschema.run_stream.serve") *. 1e3);
  let hits = delta "serve.plan_cache.hit" and misses = delta "serve.plan_cache.miss" in
  Trace.layer "jserve.plan_cache_hit_frac" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  Trace.layer "jserve.plan_cache_evictions" "count" (float_of_int (delta "serve.plan_cache.evict"));
  Trace.layer "jserve.indexq_open_hit_frac" "ratio"
    (float_of_int (delta "serve.indexq.open_hits")
    /. float_of_int (max 1 (delta "serve.indexq.requests")));
  Trace.enable false
