(** Named counters and timers with a structured dump.

    One process-wide registry of

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

    {b Concurrency.}  The registry is kept as one shard per live
    domain: a domain records into its own shard without locking, and
    hands the shard on to a later domain when it exits.  Reads
    ({!counter_value}, {!dump_text}, {!dump_json}) sum every shard and
    {!reset} clears them, so a count recorded on any domain reaches
    the dump.  They are exact once the recording domains have joined
    or gone idle (a [Par.Pool.map] returning, a daemon stopped); a read
    that races a recording may miss it. *)

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
(** Current value of a counter, summed over every domain; [0] if never
    touched. *)

val reset : unit -> unit
(** Drop all recorded counters and timings, on every domain (leaves
    enablement alone). *)

val dump_text : unit -> string
(** Human-readable dump: one sorted [name value] line per counter, one
    [name count total mean min max] line per timing. *)

val dump_json : unit -> string
(** The same data as one JSON object:
    [{"counters": {name: int, ...},
      "timings": {name: {"count": int, "total_ms": float,
                         "mean_ns": float, "min_ns": float,
                         "max_ns": float}, ...}}]. *)
