(** A MongoDB-style aggregation pipeline engine over the tree model.

    A {e pipeline} is a JSON array of stages, e.g.
    [[{"$match": {"status": "shipped"}},
      {"$unwind": "$lines"},
      {"$group": {"_id": "$lines.sku", "n": {"$sum": "$lines.qty"}}},
      {"$sort": {"n": 0}}, {"$limit": 10}]].

    Supported stages: [$match] (the {!Mongo} find-filter language,
    translated to JSL, compiled by {!Jschema.Validate.Plan.of_jsl} and
    run over each document's tree by the plan's tree executor),
    [$project] (inclusion / exclusion flags plus computed fields from
    ["$a.b"] paths, [{"$literal": v}] and literal documents),
    [$unwind] (with [preserveNullAndEmptyArrays]), [$group]
    ([$sum $avg $min $max $push $count] accumulators), [$sort],
    [$limit], [$skip], and a hash-join [$lookup] against collections
    resolved at parse time.

    The navigational core — [$match], flag-only [$project], [$unwind]
    — also evaluates through pure JNL ({!run_via_jnl}): [$match]
    through Theorem 2, [$project] by marking-set post-images
    ({!Jlogic.Jnl_eval.succs}), [$unwind] by post-image targeting and
    {!Jsont.Tree.substitute}.  The two engines share no evaluation
    code and are pinned against each other by the pipeline
    differential in the test suite and CI.

    Divergences from MongoDB (the model has only naturals, strings,
    arrays and objects — no null, bool or doubles): [$sort] directions
    are [1] (ascending) / [0] (descending) since [-1] is not a model
    value; [$avg] truncates to a natural; missing fields sort before
    present ones; there is no implicit [_id] handling in [$project].
    Stage-level semantics are documented in [docs/AGGREGATION.md].

    Counters: [mongo.agg.docs.in/out], [mongo.agg.match.pass/drop],
    [mongo.agg.unwind.out/preserved], [mongo.agg.group.groups],
    [mongo.agg.lookup.probes/hits], [mongo.agg.sort.docs]; span
    [mongo.agg.run]. *)

type pipeline
(** A parsed pipeline: a typed stage list. *)

type doc
(** A document flowing through the pipeline, carrying its value and
    tree representations built on demand — ingesting via
    {!doc_of_tree} lets a leading [$match] drop documents without ever
    materializing a {!Jsont.Value.t}. *)

val doc_of_value : Jsont.Value.t -> doc
val doc_of_tree : Jsont.Tree.t -> doc
val doc_value : doc -> Jsont.Value.t

val parse :
  ?collections:(string -> Jsont.Value.t list option) ->
  Jsont.Value.t ->
  (pipeline, string) result
(** Parse a pipeline.  [collections] resolves [$lookup from] names to
    document lists (default: every name unknown); the join hash table
    is built once here, not per document. *)

val parse_string :
  ?collections:(string -> Jsont.Value.t list option) ->
  string ->
  (pipeline, string) result

val parse_string_exn :
  ?collections:(string -> Jsont.Value.t list option) -> string -> pipeline

val run : pipeline -> Jsont.Value.t list -> Jsont.Value.t list
(** Evaluate the pipeline over a collection, in order. *)

(** {1 Sharding}

    A pipeline splits into a {e streaming} prefix — per-document
    stages ([$match]/[$project]/[$unwind]/[$lookup]), each mapping one
    document to zero or more — and a {e blocking} suffix ([$group],
    [$sort], [$limit], [$skip]) that needs the whole collection.  The
    CLI and bench shard the prefix across {!Par.Batch} lanes and run
    the suffix sequentially; concatenating per-document results in
    input order makes the output independent of the lane count. *)

val split_streaming : pipeline -> pipeline * pipeline
(** [(streaming prefix, blocking suffix)]; the prefix is maximal. *)

val apply_doc : pipeline -> doc -> doc list
(** Run a streaming prefix over one document.
    @raise Invalid_argument on a blocking stage. *)

val run_docs : pipeline -> doc list -> doc list
(** {!run} at the [doc] level (any pipeline, evaluated sequentially). *)

(** {1 The JNL route} *)

val navigational : pipeline -> bool
(** Whether every stage is in the JNL-translatable navigational core
    ([$match] within Theorem 2's fragment, flag-only [$project],
    [$unwind]). *)

val run_via_jnl :
  pipeline -> Jsont.Value.t list -> (Jsont.Value.t list, string) result
(** Independent evaluation through pure JNL; [Error] outside the
    navigational core.  Agrees with {!run} byte for byte — the
    pipeline differential. *)
