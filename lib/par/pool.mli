(** Fixed-size domain pool.

    A pool of [lanes] executes work on [lanes - 1] persistent worker
    domains {e plus the calling domain} — the caller of {!map}
    participates instead of blocking, so [create 1] spawns no domains
    at all and degenerates to sequential execution.

    Each lane records {!Obs.Metrics} into its own domain's shard of
    the one registry, so once {!map} returns, counter and timing totals
    equal the sequential run's exactly.  Counter [par.pool.domains]
    accumulates domains spawned. *)

type t
(** A pool handle.  Not itself thread-safe: drive a given pool from one
    coordinating domain. *)

val create : int -> t
(** [create lanes] spawns [max 1 lanes - 1] worker domains.  Keep
    [lanes] at or below [Domain.recommended_domain_count ()]. *)

val lanes : t -> int
(** Lane count, including the caller's lane. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f items] is [Array.map f items] with items distributed
    dynamically over the pool's lanes (shared-counter self-scheduling,
    so skewed item costs still balance).  Blocks until every item is
    done.  If any [f] raises, the first exception (in completion order)
    is re-raised in the caller after all lanes quiesce; remaining items
    are skipped.  [f] must not use the pool it runs on. *)

val submit : t -> (unit -> unit) -> unit
(** Low-level: enqueue one task for a worker domain.  Tasks should
    handle their own errors — prefer {!map}.  A task exception that
    escapes to the worker loop is a {e stray}: it is counted
    ({!stray_exn_count}, added to counter [par.pool.stray_exn] at
    {!shutdown}), then dropped if recoverable, or re-raised — killing
    that worker so the failure surfaces at the {!shutdown} join — when
    it is [Out_of_memory] or [Stack_overflow].  @raise Invalid_argument
    after {!shutdown}. *)

val stray_exn_count : t -> int
(** Task exceptions that have escaped to the worker loop so far (reset
    to zero when {!shutdown} adds the total to counter
    [par.pool.stray_exn]). *)

val shutdown : t -> unit
(** Drain the queue, join every worker domain.  Idempotent.  The pool
    rejects {!submit}/{!map} afterwards.  Re-raises the first
    non-recoverable stray exception that killed a worker, after all
    workers have been joined. *)
