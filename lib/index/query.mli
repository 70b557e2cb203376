(** Corpus queries over the on-disk index.

    {!run} answers one JNL formula against every document of the
    corpus, in document (line) order, with verdicts that match what
    [eval --files-from] prints per file — [true]/[false] from
    {!Jlogic.Jnl_eval.holds} at the root, parse failures and budget
    exhaustion folded to [error: …] lines.

    One plan: the formula runs through JNL's own pre-image evaluator
    ({!Jlogic.Jnl_eval.Make}) with the mapped index as its node store.
    Node ids are corpus-wide (a document's node base plus its local
    preorder id) and postings store them as they are; a key or
    position step walks the smaller of its postings list and its target
    set, parents come from the stored parent distances, an array's next
    element from the stored subtree sizes, negative indices from the
    last-element bit, a regex key from the key table, and
    [eq(α, scalar)] seeds from the value postings of α's last label.  A
    step whose result is a bitset runs as one of the store's bulk steps
    ({!Jlogic.Jnl_store.S.bucket_parents},
    {!Jlogic.Jnl_store.S.edge_parents}).  Per-query fuel follows the
    postings touched, never the corpus size, and conjunctions run
    cheapest first (by postings length), stopping at an empty
    intersection.

    Two atoms are not decided from postings: [EQ(α,β)], and [eq]
    against an object or array constant; every scalar [eq] is.  The
    two are relaxed by polarity (to the existence of their paths where
    they occur positively, to ⊥ where negatively), and only the
    documents the relaxed formula admits are reparsed, by byte range,
    and evaluated like the baseline.

    Lines that failed to parse at build time answer their parse error.
    That cell depends on the line's bytes and the budget's limits, not
    on the formula, so it is computed once per open index: the first
    query that reparses those lines under a budget without a deadline
    fills the reader's slot ({!Reader.error_cells}), and later queries
    with the same corpus file and the same fuel and depth limits
    ({!Obs.Budget.limits}) read it.  A deadline budget, other limits, or
    a line that parses under the query's budget (the index was built
    under a stricter one) reparse as the baseline would; a query left
    with nothing to reparse opens no corpus channel and starts no
    lanes.

    The stale-corpus check stats the corpus on every query: a size
    other than the indexed one is refused.  Whenever the file's
    identity (path, size, mtime, inode) differs from the one the reader
    last verified ({!Reader.verified_corpus}), the file is checksummed
    and a checksum other than the header's is refused the same way; a
    match records the identity, so a warm reader rehashes nothing.

    Counters: [index.query.postings_only], [index.query.filtered] (some
    atom was relaxed), [index.query.value_hits],
    [index.query.reparsed] (documents actually reparsed, slot reads
    excluded), [index.plan.reorders]; span [index.query]. *)

type verdict = True | False | Error of string

val verdict_string : verdict -> string
(** ["true"], ["false"] or ["error: …"] — the batch-eval rendering. *)

val run :
  ?jobs:int ->
  ?corpus:string ->
  ?fresh_budget:(unit -> Obs.Budget.t) ->
  Reader.t ->
  Jlogic.Jnl.form ->
  (verdict array, string) result
(** [run r phi] is one verdict per indexed document, in line order.
    [corpus] overrides the corpus path stored in the index (whose size
    and bytes must still be the indexed ones — a changed corpus makes
    the index stale and is refused).  [jobs] shards candidate
    reparsing; [fresh_budget] configures the per-document evaluator
    exactly like the batch CLI flags.  Safe to call from several
    domains on one reader at once. *)
