(** The [jsonlogic serve] daemon: a long-lived validation service over
    a Unix or TCP socket.

    One process compiles each schema once into an immutable
    {!Jschema.Validate.Plan} (kept in a {!Plan_cache}) and validates
    any number of documents against it.  Request bodies are never
    materialized: they are fed into {!Jschema.Validate.Plan.run_lexer}
    through the resumable feed lexer in {!Par.Batch.slice_bytes}
    reads, so per-request memory follows nesting depth plus one slice,
    not document size — a request body larger than RAM validates in a
    bounded window.

    The [INDEXQ] verb additionally serves corpus-index queries: the
    daemon opens the named index read-only (validated exactly like
    [index query], body checksum included), keeps up to 16 open
    readers keyed by path and pinned to the file's (mtime, size) — a
    rebuilt index is transparently re-opened — and answers with a
    [DATA]-framed payload whose rows are byte-identical to the
    [index query] CLI output.  Each query draws a fresh budget.

    {b Concurrency.}  The accept loop runs on the calling domain and
    dispatches each connection to the [lib/par] domain pool ([jobs]
    lanes: the accept loop plus [jobs - 1] connection workers;
    [jobs <= 1] handles connections inline, serially).  Plans are
    immutable and shared; every request draws a fresh
    {!Obs.Budget.t}, so budgets never cross requests or domains.

    {b Shutdown.}  {!request_stop} (signal-handler-safe) makes the
    accept loop stop accepting; {!run} then drains: every accepted
    connection finishes its in-flight request stream, the pool is
    joined, the socket closed and (for Unix sockets) unlinked.  The
    [SHUTDOWN] verb answers [OK bye], then triggers the same path.

    {b Faults.}  A connection that lies about its framing — truncated
    header, body shorter than declared, a declared length beyond
    [max_body_bytes], a header line longer than
    {!Protocol.max_header_bytes} — is answered with [ERR] where a
    response is still deliverable and then dropped; other connections,
    and earlier pipelined requests on the same connection, are
    unaffected.  No fault path leaks a connection slot or a
    plan-cache entry.

    {b Counters} (atomics, so they count without [--metrics]; readable
    via {!counters}, served by the [METRICS] verb, and added to the
    {!Obs.Metrics} registry once, as {!run} returns): [serve.requests],
    [serve.connections], [serve.bytes_in],
    [serve.plan_cache.{hit,miss,evict}],
    [serve.indexq.{requests,docs,opens,open_hits}],
    [serve.errors]. *)

type endpoint = [ `Unix of string | `Tcp of string * int ]
(** Where to listen: a Unix-domain socket path, or a TCP host/port. *)

type config = {
  listen : endpoint;
  jobs : int;  (** pool lanes, accept loop included; [<= 1] = inline *)
  cache_capacity : int;  (** plan-cache entries kept (LRU beyond) *)
  max_body_bytes : int;  (** largest declared schema/document length *)
  fresh_budget : unit -> Obs.Budget.t;  (** drawn once per request *)
}

val default_config : endpoint -> config
(** [jobs = 1], 64-entry cache, 64 MiB body ceiling, depth-only
    default budgets. *)

type t

val create : config -> t
(** Bind and listen (Unix socket paths are unlinked first if they hold
    a stale socket).  The socket accepts connections immediately; they
    are serviced once {!run} starts.  @raise Unix.Unix_error on bind
    failures. *)

val run : t -> unit
(** The accept loop.  Blocks until {!request_stop} (or a [SHUTDOWN]
    request) and the subsequent drain complete, then adds the counters
    to the {!Obs.Metrics} registry.  Call at most once. *)

val start : config -> t
(** {!create}, then {!run} on a fresh background domain — the
    in-process form the tests and the bench harness use. *)

val stop : t -> unit
(** {!request_stop}, then wait for {!run} to finish (joining the
    {!start} domain if there is one).  Idempotent. *)

val request_stop : t -> unit
(** Flip the stop flag only — async-signal-safe, so SIGINT/SIGTERM
    handlers can call it directly. *)

val endpoint : t -> endpoint
(** The bound endpoint.  For [`Tcp (host, 0)] configs the kernel picks
    the port; this reports the actual one. *)

val active_connections : t -> int
(** Connections accepted and not yet fully closed (the drain gate). *)

val counters : t -> (string * int) list
(** Current counter values, sorted by name. *)

val cache : t -> Plan_cache.t
(** The live plan cache (tests assert size/stats through this). *)
