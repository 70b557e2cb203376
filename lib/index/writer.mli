(** Corpus index construction.

    [build] ingests an NDJSON corpus once — one document per line,
    trim-blank lines skipped but still counted for line numbers,
    exactly the convention of [validate --stream] — sharded across the
    {!Par} pool, and writes the complete label → postings index
    described in {!Layout} next to the per-document offset table.

    The output bytes are a pure function of the corpus: documents are
    numbered in line order whatever the lane count, the string table
    is sorted, and postings lists are emitted in node-id order — so two
    builds of the same corpus are byte-identical regardless of
    [jobs].

    Counters: [index.build.docs], [index.build.nodes],
    [index.build.keys], [index.build.postings],
    [index.build.values], [index.build.value_postings],
    [index.build.value_dropped], [index.build.errors],
    [index.build.bytes]; span [index.build]. *)

type stats = {
  docs : int;  (** documents indexed (non-blank lines) *)
  errors : int;  (** documents that failed to parse (flagged, not fatal) *)
  nodes : int;  (** total tree nodes across all parsed documents *)
  keys : int;  (** distinct object keys in the string table *)
  key_postings : int;  (** entries across all key postings lists *)
  pos_postings : int;  (** entries across all position postings lists *)
  values : int;  (** distinct scalar values in the value table *)
  value_pairs : int;  (** distinct (leaf-label, value-id) postings lists *)
  value_postings : int;  (** entries across all value postings lists *)
  value_dropped : int;  (** entries dropped by the [value_cap] ceiling *)
  bytes : int;  (** size of the written index file *)
}

val build :
  ?jobs:int ->
  ?pos_cap:int ->
  ?value_cap:int ->
  ?no_values:bool ->
  ?fresh_budget:(unit -> Obs.Budget.t) ->
  corpus:string ->
  output:string ->
  unit ->
  (stats, string) result
(** [build ~corpus ~output ()] reads the NDJSON file [corpus], parses
    every line on [jobs] domains (each under its own budget from
    [fresh_budget]), and writes the index to [output] (atomically, via
    a temporary file, a rename and an fsync of the directory; the
    temporary files of earlier builds of [output] whose process is
    gone are removed first).  A corpus of {!Layout.max_nodes} nodes or
    more is refused, naming the line that reaches the limit.  Lines
    that fail to parse are recorded with an error flag — queries
    reproduce the exact parse error by reparsing just that line — and
    do not fail the build.
    [pos_cap] bounds how many array-position postings lists are
    materialized (default {!Layout.default_pos_cap}); [value_cap]
    (default {!Layout.default_value_cap}) bounds the length of one
    (leaf-label, value) postings list — longer lists are dropped (the
    pair keeps an empty range, so queries fall back instead of
    scanning an unselective seed set) and counted in [value_dropped];
    [no_values] skips the scalar-value table and value postings
    entirely (the [eq] pushdown then always falls back to filtered
    reparse).  A negative [pos_cap] or [value_cap] is an [Error], and
    nothing is written. *)
