(** Corpus queries over the on-disk index.

    {!run} answers one JNL formula against every document of the
    corpus, in document (line) order, with verdicts that match what
    [eval --files-from] prints per file — [true]/[false] from
    {!Jlogic.Jnl_eval.holds} at the root, parse failures and budget
    exhaustion folded to [error: …] lines.

    One plan: the formula runs through JNL's own pre-image evaluator
    ({!Jlogic.Jnl_eval.Make}) with the mapped index as its node store.
    Node ids are corpus-wide (a document's node base plus its local
    preorder id); a key or position step walks the smaller of its
    postings list and its target set, parents come from the stored
    parent distances, negative indices from the last-element bit, a
    regex key from the key table, and [eq(α, scalar)] seeds from the
    value postings of α's last label.  Per-query fuel follows the
    postings touched, never the corpus size, and conjunctions run
    cheapest first (by postings length), stopping at an empty
    intersection.

    Two atoms are not decided from postings: [EQ(α,β)], and [eq]
    against an object or array constant — nor a scalar [eq] on a
    [--no-values] index or on a (label, value) list capped at build
    time.  They are relaxed by polarity (to the existence of their
    paths where they occur positively, to ⊥ where negatively), and only
    the documents the relaxed formula admits are reparsed, by byte
    range, and evaluated like the baseline.  Lines that failed to parse
    at build time always reparse: their verdict is the parse error.

    Counters: [index.query.postings_only], [index.query.filtered] (some
    atom was relaxed), [index.query.value_hits],
    [index.query.reparsed], [index.plan.reorders]; span
    [index.query]. *)

type verdict = True | False | Error of string

val verdict_string : verdict -> string
(** ["true"], ["false"] or ["error: …"] — the batch-eval rendering. *)

val run :
  ?jobs:int ->
  ?use_index:bool ->
  ?corpus:string ->
  ?fresh_budget:(unit -> Obs.Budget.t) ->
  Reader.t ->
  Jlogic.Jnl.form ->
  (verdict array, string) result
(** [run r phi] is one verdict per indexed document, in line order.
    [corpus] overrides the corpus path stored in the index (whose
    current size must still match the indexed size — a changed corpus
    makes the index stale and is refused).  [jobs] shards candidate
    reparsing; [use_index]/[fresh_budget] configure the per-document
    evaluator exactly like the batch CLI flags. *)
