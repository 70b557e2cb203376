(** Batch evaluation: shard independent documents across domains.

    The unit of work is one whole document (parse, evaluate, render) —
    coarse enough that coordination cost vanishes against it, and no
    shared mutable state crosses lanes: each document must get its own
    {!Obs.Budget.t} (fueled budgets are mutable), and every lane records
    into the one metrics registry, in a shard of its own domain.

    Determinism: results come back in input order regardless of lane
    count, and metric totals are independent of [jobs] — the agreement
    the differential tests and the CI gate pin down.

    Counters: [par.batch.docs] (documents submitted),
    [validate.feed.chunks] (slices {!lines} and {!values} read), span
    [par.batch.run]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] maps [f] over [items] on a throwaway
    [jobs]-lane {!Pool} (joined before returning).  [jobs <= 1] runs on
    the caller's domain alone.  First exception re-raised after the
    join. *)

val map_pool : Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!map} on an existing pool — for repeated batches amortizing
    domain spawns. *)

val cell : (unit -> string) -> string
(** [cell f] is one document's result line: [f ()], or
    ["error: <message>"] when the document fails — a positioned parse
    or lexer error (rendered by {!Jsont.Parser.pp_error}), [Failure],
    [Sys_error], or budget exhaustion ({!Obs.Budget.describe}).  Every
    other exception propagates.  One bad document thereby never sinks
    its batch, and every route renders the same failure the same
    way. *)

val slice_bytes : int
(** [65536]: the read size of every input reader — the [chunk_bytes]
    the CLI passes to {!lines} and {!values}, the slices of a
    [validate --stream --files-from] file, and the daemon's connection
    buffer. *)

val lines :
  ?jobs:int -> chunk_bytes:int -> (string -> 'a) -> (int -> 'a -> unit)
  -> In_channel.t -> unit
(** [lines ~jobs ~chunk_bytes f emit ic] runs [f] on every line of
    [ic] (NDJSON: one document per line) and calls [emit lineno result]
    in line order.  Input is read in [chunk_bytes] slices and only
    ['\n'] ends a line; lines are numbered from 1, blank lines (empty
    after [String.trim]) are numbered but skipped, and an unterminated
    last line counts.  Lines run on one [jobs]-lane {!Pool}, created
    once, in windows of about [chunk_bytes * 32 * (jobs - 1)] bytes
    (line at a time when [jobs <= 1]), so memory is one window plus the
    longest line at every lane count.  Output does not depend on [jobs]
    or [chunk_bytes], nor counter totals on [jobs].  An exception from
    [f] or [emit] ends the run and is re-raised.
    @raise Invalid_argument if [chunk_bytes < 1]. *)

val values :
  ?jobs:int -> ?collection:bool -> chunk_bytes:int -> (string -> 'a)
  -> (int -> 'a -> unit) -> In_channel.t -> unit
(** [values] is {!lines} (same reader, windows, lanes, counters and
    guarantees) for input holding top-level JSON values in any layout
    — NDJSON, pretty-printed, several on a line: [f] runs on the text
    of each value, [emit] gets the line it begins on.  The cut reads
    syntax only (brackets, strings, the bytes between values),
    iteratively and with no budget; literals, duplicate keys, depth and
    fuel are [f]'s own parse's job.  A syntax error the cut sees (a
    mismatched bracket, a string its line ends inside, a container the
    input ends inside, a stray [','], [':'] or closing bracket) makes
    the line the bad value begins on one document, as an NDJSON line;
    values begun on that line are dropped, and the cut resumes on the
    next line.  Each byte is scanned a bounded number of times.  With
    [collection], input whose only value is an array is cut into its
    elements instead (the bytes between its top-level commas). *)
