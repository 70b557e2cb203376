(** Named counters and timers with a structured dump.

    A per-domain registry of

    - {b counters}: monotonically increasing integers ({!incr}/{!add}),
      used for per-construct evaluation counts ([jsl.test.unique],
      [jnl.eq_paths], …) and volume counts ([parse.values],
      [validate.stream.skipped_bytes], …);
    - {b timings}: accumulated duration samples with count/total/min/max
      ({!span} for scoped wall-clock measurement, {!observe_ns} for
      externally measured samples — the bench harness feeds its OLS
      estimates through this).

    Recording is {e disabled by default} so the evaluators' hot paths
    pay a single mutable-bool read; {!set_enabled}[ true] (the CLI's
    [--metrics] flag, the bench driver) turns it on.

    {b Concurrency.}  Every domain records into its own registry
    (domain-local storage), so recording never races.  A parallel
    stage runs its workers under {!with_registry} with a fresh
    {!create_registry} each, and the coordinator folds the quiesced
    worker registries back with {!merge} once they have joined — this
    is how [Par.Batch] keeps counters exact across job counts.  The
    main domain's registry is what {!dump_text}/{!dump_json} render. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val incr : string -> unit
(** [incr name] adds 1 to counter [name] (no-op while disabled). *)

val add : string -> int -> unit

val observe_ns : string -> float -> unit
(** Record one duration sample, in nanoseconds (no-op while disabled). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and records its wall-clock duration under
    timing [name].  The duration is recorded even when [f] raises.
    While disabled, [f] is run directly. *)

val counter_value : string -> int
(** Current value of a counter; [0] if never touched. *)

val reset : unit -> unit
(** Drop all recorded counters and timings (leaves enablement alone). *)

val dump_text : unit -> string
(** Human-readable dump: one sorted [name value] line per counter, one
    [name count total mean min max] line per timing. *)

val dump_json : unit -> string
(** The same data as one JSON object:
    [{"counters": {name: int, ...},
      "timings": {name: {"count": int, "total_ms": float,
                         "mean_ns": float, "min_ns": float,
                         "max_ns": float}, ...}}]. *)

(** {1 Mergeable registries}

    The apparatus behind race-free parallel recording.  All the
    functions above operate on the {e current} registry — by default
    the calling domain's own. *)

type registry
(** A set of counters and timings. *)

val create_registry : unit -> registry
(** A fresh, empty registry. *)

val current_registry : unit -> registry
(** The registry the recording functions currently write to. *)

val with_registry : registry -> (unit -> 'a) -> 'a
(** [with_registry r f] runs [f] with [r] installed as the calling
    domain's current registry, restoring the previous one afterwards
    (also on exceptions). *)

val merge : registry -> unit
(** [merge src] folds [src] into the current registry: counters are
    summed; timings combine sample counts, totals and min/max.  [src]
    must be quiescent — merge worker registries only after the workers
    have joined. *)

val merge_into : into:registry -> registry -> unit
(** Like {!merge} with an explicit destination. *)
