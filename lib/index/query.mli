(** Corpus queries over the on-disk index.

    {!run} answers one JNL formula against every document of the
    corpus, in document (line) order, with verdicts that match what
    [eval --files-from] prints per file — [true]/[false] from
    {!Jlogic.Jnl_eval.holds} at the root, parse failures and budget
    exhaustion folded to [error: …] lines.

    One plan: the formula runs through JNL's own pre-image evaluator
    ({!Jlogic.Jnl_eval.Make}) with the mapped index as its node store,
    under the root demand ([eval_in ctx `Roots]): only [⟦ϕ⟧ ∩ roots] is
    computed, and the verdicts are one merge of that answer with the
    reader's roots ({!Reader.roots}).  Node ids are corpus-wide (a
    document's node base plus its local preorder id) and postings store
    them as they are; a key or position step walks the cheapest of its
    postings list, its target set and its demand's children — the
    roots' children through its label ({!Reader.root_children}), or
    each demand member's children by first child and subtree-size hops.
    Parents come from the stored parent distances, negative indices
    from the last-element bit, a regex key from the key table, and
    [eq(α, scalar)] seeds from, or tests by binary search against, the
    value postings of α's last label.  A step whose result is a bitset
    runs as one of the store's bulk steps
    ({!Jlogic.Jnl_store.S.bucket_parents},
    {!Jlogic.Jnl_store.S.edge_parents}).  Per-query fuel follows the
    postings and children touched, never the corpus size, and
    conjunctions run cheapest first (by postings length), each under
    the survivors of the ones before, stopping at an empty
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
    excluded), [index.plan.reorders], and the evaluator's
    [jnl.demand.*] routes; span [index.query], and each reparsed
    line's [phase.parse] and [phase.eval] ({!doc_cell}). *)

type verdict = True | False | Error of string

val verdict_string : verdict -> string
(** ["true"], ["false"] or ["error: …"] — the batch-eval rendering. *)

val root_cell :
  fresh_budget:(unit -> Obs.Budget.t) -> Jlogic.Jnl.form -> Jsont.Tree.t -> string
(** [root_cell ~fresh_budget phi tree] is ["true"] or ["false"]:
    {!Jlogic.Jnl_eval.holds} at the root of [tree], under a budget of
    its own (span [phase.eval]) — what [eval] prints for a document. *)

val doc_cell :
  fresh_budget:(unit -> Obs.Budget.t) -> Jlogic.Jnl.form -> (unit -> string)
  -> string * bool
(** [doc_cell ~fresh_budget phi read] is one document's row, as
    [eval --files-from] prints it for a file and as {!run} answers a
    reparsed line: the tree of [read ()] under one fresh budget (span
    [phase.parse]), then {!root_cell}, through {!Par.Batch.cell}.  The
    flag says whether the text parsed: a cell that failed before that
    does not depend on [phi]. *)

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
