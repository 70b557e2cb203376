(** Corpus index construction.

    [build] ingests an NDJSON corpus once — one document per line,
    trim-blank lines skipped but still counted for line numbers,
    exactly the convention of [validate --stream] — sharded across the
    {!Par} pool, and writes the complete label → postings index
    described in {!Layout} next to the per-document offset table.

    Each line is lexed once on a lane straight into its index columns
    (no {!Jsont.Tree.t} is built), under exactly the checks and budget
    draw of [Jsont.Tree.of_string ~budget]: a line is flagged as an
    error exactly when that parse rejects it.  The main domain then
    sorts the key and value tables and fills the postings by counting
    sort (keys, positions) and by one stable radix sort of
    (label, value id) keys (values).

    The output bytes are a pure function of the corpus: documents are
    numbered in line order whatever the lane count, the string tables
    are sorted, and postings lists are emitted in node-id order — so
    two builds of the same corpus are byte-identical regardless of
    [jobs].

    Counters: [index.build.docs], [index.build.nodes],
    [index.build.keys], [index.build.postings],
    [index.build.values], [index.build.value_postings],
    [index.build.errors], [index.build.bytes], and [parse.values] (one
    per value parsed, as [Tree.of_string] counts them); span
    [index.build], split into [index.build.parse] (read, line cut and
    the lanes), [index.build.assemble] (tables, columns and postings)
    and [index.build.write] (emit, checksums, fsync and rename). *)

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
  bytes : int;  (** size of the written index file *)
}

val build :
  ?jobs:int ->
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
    do not fail the build.  The layout depends on the corpus alone:
    every (leaf-label, scalar) pair keeps its whole postings list, and
    every array position below {!Layout.pos_cap} keeps its own. *)
