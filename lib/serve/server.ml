type endpoint = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : endpoint;
  jobs : int;
  cache_capacity : int;
  max_body_bytes : int;
  fresh_budget : unit -> Obs.Budget.t;
}

let default_config listen =
  { listen;
    jobs = 1;
    cache_capacity = 64;
    max_body_bytes = 64 * 1024 * 1024;
    fresh_budget = (fun () -> Obs.Budget.create ()) }

(* Open index readers, keyed by path and pinned to the file identity
   seen at open ([mtime], [size]): a rebuilt index is re-opened, a
   cached mapping is reused.  Readers are immutable once validated, so
   sharing one across connections is safe; the mutex only guards the
   table. *)
type index_cache = {
  mutable readers : (string * (float * int * Jindex.Reader.t)) list;
  lock : Mutex.t;
}

(* a daemon serves a handful of corpora; past this the table is
   dropped wholesale rather than managed *)
let index_cache_capacity = 16

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound : endpoint;
  cache : Plan_cache.t;
  indexes : index_cache;
  pool : Par.Pool.t option;
  stop : bool Atomic.t;
  active : int Atomic.t;
  requests : int Atomic.t;
  connections : int Atomic.t;
  bytes_in : int Atomic.t;
  errors : int Atomic.t;
  indexq_requests : int Atomic.t;
  indexq_docs : int Atomic.t;
  indexq_opens : int Atomic.t;
  indexq_open_hits : int Atomic.t;
  folded : bool Atomic.t;
  mutable runner : unit Domain.t option;
}

(* the peer vanished (EOF or reset inside a frame, broken pipe on
   write): nothing can be answered, drop the connection *)
exception Client_gone

(* ---- buffered connection reads --------------------------------------------- *)

(* One read buffer per connection, [Par.Batch.slice_bytes] wide: header
   lines are scanned out of it and body bytes are fed to the lexer
   directly from it, so the socket is read in at most slice-size reads
   and a request body never exists contiguously in memory. *)
type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* first unconsumed byte *)
  mutable len : int;  (* bytes valid in [buf] *)
  srv : t;
}

let available c = c.len - c.pos

(* Refill when empty; 0 means EOF.  [at_boundary] reads poll with a
   timeout so a connection idling between requests notices a server
   stop and closes — that is what lets the drain finish while keeping
   every in-flight request running to completion. *)
let refill ?(at_boundary = false) c =
  if available c > 0 then available c
  else begin
    c.pos <- 0;
    c.len <- 0;
    let rec read_once () =
      if at_boundary && Atomic.get c.srv.stop then raise Client_gone;
      let ready =
        if at_boundary then
          match Unix.select [ c.fd ] [] [] 0.05 with
          | [], _, _ -> false
          | _ -> true
        else true
      in
      if not ready then read_once ()
      else
        match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
        | n ->
          Atomic.fetch_and_add c.srv.bytes_in n |> ignore;
          n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          0
    in
    c.len <- read_once ();
    c.len
  end

(* One header line, [\n]-terminated.  [`Eof] only at a clean request
   boundary; EOF mid-line is a truncated frame = [Client_gone].
   [`Overlong] when no line fits {!Protocol.max_header_bytes}. *)
let read_line c =
  let line = Buffer.create 64 in
  let rec scan first =
    match refill ~at_boundary:(first && Buffer.length line = 0) c with
    | 0 -> if Buffer.length line = 0 then `Eof else raise Client_gone
    | _ -> (
      match Bytes.index_from_opt c.buf c.pos '\n' with
      | Some nl when nl < c.len ->
        Buffer.add_subbytes line c.buf c.pos (nl - c.pos);
        c.pos <- nl + 1;
        if Buffer.length line > Protocol.max_header_bytes then `Overlong
        else `Line (Buffer.contents line)
      | _ ->
        Buffer.add_subbytes line c.buf c.pos (available c);
        c.pos <- c.len;
        if Buffer.length line > Protocol.max_header_bytes then `Overlong
        else scan false)
  in
  scan true

(* [len] body bytes into a string (schemas only: documents stream) *)
let read_exact c len =
  let out = Buffer.create len in
  let rec go remaining =
    if remaining = 0 then Buffer.contents out
    else
      match refill c with
      | 0 -> raise Client_gone
      | avail ->
        let n = min avail remaining in
        Buffer.add_subbytes out c.buf c.pos n;
        c.pos <- c.pos + n;
        go (remaining - n)
  in
  go len

let drain c len =
  let rec go remaining =
    if remaining > 0 then
      match refill c with
      | 0 -> raise Client_gone
      | avail ->
        let n = min avail remaining in
        c.pos <- c.pos + n;
        go (remaining - n)
  in
  go len

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Client_gone
  in
  go 0

(* ---- request handling ------------------------------------------------------ *)

let respond_err c msg =
  Atomic.incr c.srv.errors;
  write_all c.fd (Protocol.err msg)

(* Compile schema bytes through the content-hash-keyed cache.  The
   compile itself runs outside the cache lock: two connections racing
   on the same new schema both compile, both plans are equivalent, one
   stays.  Never caches failures: a bad schema re-errors per attempt. *)
let plan_of_schema srv bytes =
  let id = Plan_cache.id_of_schema bytes in
  match Plan_cache.find srv.cache id with
  | Some plan -> Ok (id, plan)
  | None -> (
    match Jschema.Parse.of_string bytes with
    | Error m -> Error ("bad schema: " ^ m)
    | Ok schema -> (
      match
        Jschema.Validate.Plan.compile ~budget:(srv.cfg.fresh_budget ()) schema
      with
      | plan ->
        Plan_cache.add srv.cache id plan;
        Ok (id, plan)
      | exception Invalid_argument m -> Error ("bad schema: " ^ m)
      | exception Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r)))

(* Validate [len] body bytes against [plan], streaming them into the
   plan's lexer executor in buffer-sized slices.  The verdict is the
   same {!Par.Batch.cell} the `validate --stream` CLI prints: `valid`,
   `INVALID`, or `error: <message>`. *)
let validate_body srv c plan len =
  let remaining = ref len in
  let refill_lexer lx =
    if !remaining = 0 then Jsont.Lexer.close lx
    else
      match refill c with
      | 0 -> raise Client_gone
      | avail ->
        let n = min avail !remaining in
        Jsont.Lexer.feed lx c.buf c.pos n;
        c.pos <- c.pos + n;
        remaining := !remaining - n
  in
  let verdict =
    Par.Batch.cell (fun () ->
        let lx = Jsont.Lexer.create_feed ~refill:refill_lexer () in
        if
          Jschema.Validate.Plan.run_lexer ~budget:(srv.cfg.fresh_budget ())
            plan lx
        then "valid"
        else "INVALID")
  in
  (* an early verdict (a validation error halfway in) leaves body bytes
     on the wire; consume them so the next pipelined header parses *)
  drain c !remaining;
  verdict

(* The cached reader for [path], re-validated against the file's
   current (mtime, size) so a rebuilt index is never answered from the
   old mapping.  Body verification runs once, at (re-)open. *)
let index_reader srv path =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) ->
    Error (path ^ ": " ^ Unix.error_message e)
  | st ->
    let ident = (st.Unix.st_mtime, st.Unix.st_size) in
    let ic = srv.indexes in
    Mutex.lock ic.lock;
    let cached =
      match List.assoc_opt path ic.readers with
      | Some (m, s, r) when (m, s) = ident -> Some r
      | _ -> None
    in
    Mutex.unlock ic.lock;
    match cached with
    | Some r ->
      Atomic.incr srv.indexq_open_hits;
      Ok r
    | None -> (
      Atomic.incr srv.indexq_opens;
      (* open outside the lock: two connections racing on a new path
         both open, both readers are valid, one stays *)
      match Jindex.Reader.open_ path with
      | Error m -> Error m
      | Ok r ->
        let m, s = ident in
        Mutex.lock ic.lock;
        if List.length ic.readers >= index_cache_capacity then
          ic.readers <- [];
        ic.readers <- (path, (m, s, r)) :: List.remove_assoc path ic.readers;
        Mutex.unlock ic.lock;
        Ok r)

(* Answer one INDEXQ: the payload rows are byte-identical to what
   `index query` prints — `<lineno>\t<verdict>\n` per document, in
   line order.  Queries run single-lane: connections are already the
   parallelism, and the pool is busy carrying them. *)
let index_query_payload srv path formula =
  match Jlogic.Jnl.parse formula with
  | Error m -> Error ("bad formula: " ^ m)
  | Ok phi -> (
    match index_reader srv path with
    | Error m -> Error m
    | Ok r -> (
      match
        Jindex.Query.run ~jobs:1 ~fresh_budget:srv.cfg.fresh_budget r phi
      with
      | Error m -> Error m
      | Ok verdicts ->
        Atomic.fetch_and_add srv.indexq_docs (Array.length verdicts)
        |> ignore;
        let b = Buffer.create (Array.length verdicts * 16) in
        Array.iteri
          (fun d v ->
            Buffer.add_string b
              (Printf.sprintf "%d\t%s\n"
                 (Jindex.Reader.doc_lineno r d)
                 (Jindex.Query.verdict_string v)))
          verdicts;
        Ok (Buffer.contents b)))

let counters srv =
  let hits, misses, evictions = Plan_cache.stats srv.cache in
  [ ("serve.bytes_in", Atomic.get srv.bytes_in);
    ("serve.connections", Atomic.get srv.connections);
    ("serve.errors", Atomic.get srv.errors);
    ("serve.indexq.docs", Atomic.get srv.indexq_docs);
    ("serve.indexq.open_hits", Atomic.get srv.indexq_open_hits);
    ("serve.indexq.opens", Atomic.get srv.indexq_opens);
    ("serve.indexq.requests", Atomic.get srv.indexq_requests);
    ("serve.plan_cache.evict", evictions);
    ("serve.plan_cache.hit", hits);
    ("serve.plan_cache.miss", misses);
    ("serve.plan_cache.size", Plan_cache.size srv.cache);
    ("serve.requests", Atomic.get srv.requests) ]

let metrics_json srv =
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (counters srv)
  in
  "{" ^ String.concat "," fields ^ "}"

let check_len srv c what len =
  if len <= srv.cfg.max_body_bytes then true
  else begin
    (* the body cannot be drained at this size: answer and drop *)
    respond_err c
      (Printf.sprintf "%s length %d exceeds max-body %d" what len
         srv.cfg.max_body_bytes);
    false
  end

(* one request; [`Continue] to keep serving the connection *)
let handle_request srv c request =
  Atomic.incr srv.requests;
  match request with
  | Protocol.Ping ->
    write_all c.fd (Protocol.ok "pong");
    `Continue
  | Protocol.Metrics ->
    write_all c.fd (Protocol.ok (metrics_json srv));
    `Continue
  | Protocol.Flush ->
    Plan_cache.flush srv.cache;
    write_all c.fd (Protocol.ok "flushed");
    `Continue
  | Protocol.Shutdown ->
    write_all c.fd (Protocol.ok "bye");
    Atomic.set srv.stop true;
    `Close
  | Protocol.Schema len ->
    if not (check_len srv c "schema" len) then `Close
    else begin
      let bytes = read_exact c len in
      (match plan_of_schema srv bytes with
      | Ok (id, _plan) -> write_all c.fd (Protocol.ok id)
      | Error m -> respond_err c m);
      `Continue
    end
  | Protocol.Validate { schema_id; len } ->
    if not (check_len srv c "document" len) then `Close
    else begin
      (match Plan_cache.find srv.cache schema_id with
      | Some plan ->
        write_all c.fd (Protocol.result (validate_body srv c plan len))
      | None ->
        (* the frame is still sound: drain the body, keep the
           connection — the client can SCHEMA and retry *)
        drain c len;
        respond_err c ("unknown schema-id " ^ schema_id));
      `Continue
    end
  | Protocol.Validate_inline { schema_len; doc_len } ->
    if
      not
        (check_len srv c "schema" schema_len
        && check_len srv c "document" doc_len)
    then `Close
    else begin
      let schema_bytes = read_exact c schema_len in
      (match plan_of_schema srv schema_bytes with
      | Ok (_id, plan) ->
        write_all c.fd (Protocol.result (validate_body srv c plan doc_len))
      | Error m ->
        drain c doc_len;
        respond_err c m);
      `Continue
    end
  | Protocol.Index_query { path_len; formula_len } ->
    if
      not
        (check_len srv c "index path" path_len
        && check_len srv c "formula" formula_len)
    then `Close
    else begin
      Atomic.incr srv.indexq_requests;
      let path = read_exact c path_len in
      let formula = read_exact c formula_len in
      (match index_query_payload srv path formula with
      | Ok payload -> write_all c.fd (Protocol.data payload)
      | Error m -> respond_err c m);
      `Continue
    end

let handle_connection srv fd =
  let c =
    { fd; buf = Bytes.create Par.Batch.slice_bytes; pos = 0; len = 0; srv }
  in
  let rec loop () =
    match read_line c with
    | `Eof -> ()
    | `Overlong ->
      (* not answerable line-by-line any more: drop *)
      Atomic.incr srv.errors
    | `Line line -> (
      match Protocol.parse_request line with
      | Error m ->
        (* an unparseable header means the body framing is unknowable:
           answer, then drop the connection *)
        respond_err c m
      | Ok request -> (
        match handle_request srv c request with
        | `Continue -> loop ()
        | `Close -> ()))
  in
  try loop () with
  | Client_gone -> ()
  | Unix.Unix_error (_, _, _) -> Atomic.incr srv.errors

(* ---- lifecycle ------------------------------------------------------------- *)

let create cfg =
  (* a peer hanging up mid-response must surface as EPIPE (folded into
     Client_gone), not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain, addr =
    match cfg.listen with
    | `Unix path ->
      (* a stale socket file from a dead daemon would fail the bind *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let lsock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match cfg.listen with
  | `Tcp _ -> Unix.setsockopt lsock Unix.SO_REUSEADDR true
  | `Unix _ -> ());
  Unix.bind lsock addr;
  Unix.listen lsock 64;
  Unix.set_nonblock lsock;
  let bound =
    match cfg.listen with
    | `Unix _ as u -> u
    | `Tcp (host, _) -> (
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, port) -> `Tcp (host, port)
      | _ -> cfg.listen)
  in
  { cfg =
      { cfg with
        jobs = max 1 cfg.jobs;
        max_body_bytes = max 1 cfg.max_body_bytes };
    lsock;
    bound;
    cache = Plan_cache.create ~capacity:cfg.cache_capacity;
    indexes = { readers = []; lock = Mutex.create () };
    pool = (if cfg.jobs >= 2 then Some (Par.Pool.create cfg.jobs) else None);
    stop = Atomic.make false;
    active = Atomic.make 0;
    requests = Atomic.make 0;
    connections = Atomic.make 0;
    bytes_in = Atomic.make 0;
    errors = Atomic.make 0;
    indexq_requests = Atomic.make 0;
    indexq_docs = Atomic.make 0;
    indexq_opens = Atomic.make 0;
    indexq_open_hits = Atomic.make 0;
    folded = Atomic.make false;
    runner = None }

let endpoint srv = srv.bound
let active_connections srv = Atomic.get srv.active
let cache srv = srv.cache
let request_stop srv = Atomic.set srv.stop true

let dispatch srv fd =
  Atomic.incr srv.connections;
  Atomic.incr srv.active;
  let task () =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Atomic.decr srv.active)
      (fun () -> handle_connection srv fd)
  in
  match srv.pool with
  | Some pool -> Par.Pool.submit pool task
  | None -> task ()

let run srv =
  let rec accept_loop () =
    if Atomic.get srv.stop then ()
    else begin
      (match Unix.select [ srv.lsock ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept srv.lsock with
        | fd, _ -> dispatch srv fd
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* drain: in-flight (and queued) connections run to completion; idle
     connections notice the stop flag at their next boundary poll *)
  while Atomic.get srv.active > 0 do
    Unix.sleepf 0.005
  done;
  (match srv.pool with Some pool -> Par.Pool.shutdown pool | None -> ());
  (try Unix.close srv.lsock with Unix.Unix_error (_, _, _) -> ());
  (match srv.bound with
  | `Unix path -> (
    try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Tcp _ -> ())

(* Metrics registries are domain-local, so the fold must run on the
   domain whose dump should carry the counters: the CLI calls this
   right after [run] returns on the main domain; [stop] calls it after
   joining the [start] domain.  Once, whichever comes first. *)
let fold_counters srv =
  if not (Atomic.exchange srv.folded true) then
    List.iter
      (fun (name, v) -> if v > 0 then Obs.Metrics.add name v)
      (counters srv)

let start cfg =
  let srv = create cfg in
  srv.runner <- Some (Domain.spawn (fun () -> run srv));
  srv

let stop srv =
  request_stop srv;
  (match srv.runner with
  | Some d ->
    srv.runner <- None;
    Domain.join d
  | None -> ());
  fold_counters srv
