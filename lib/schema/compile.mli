(** Compile-once validation (the fast path behind {!Validate.Plan}):
    one plan IR with two front ends, JSON Schema documents ({!compile})
    and recursive JSL expressions ({!of_jsl}), and one tree and one
    stream executor for both — Theorems 1 and 3 made operational.

    {!compile} interns every subschema of a {!Schema.document} —
    definitions included, reference cycles allowed — into an immutable
    array of {e plan nodes} with integer ids, hash-consing structurally
    equal subschemas so [$ref]/[anyOf]/[allOf] sharing is explicit in
    the plan graph.  Per plan node it precomputes everything the
    interpreter re-derives at every visit:

    - a key-dispatch table (property name → subschema ids), so
      [properties]/[additionalProperties] need one sweep over the
      object's members instead of a [List.assoc] scan per property;
    - the required-key set (checked through the tree's O(1) key
      lookup);
    - [pattern]/[patternProperties] regexes lowered to {!Rexp.Dfa} at
      compile time;
    - [items]/[additionalItems] lowered to position ranges
      [(lo, hi, plan id)] plus min/max array length, and collapsed
      numeric / arity bounds;
    - [enum] constants pre-hashed and sorted for binary search on the
      subtree hash.

    {!run_tree} executes a plan directly over the flat {!Jsont.Tree}
    columns — no [Value.t] materialization — memoizing
    (node, plan id) verdicts for the plan nodes with ≥ 2 incoming
    edges, which bounds evaluation to one visit per (node, subschema)
    pair: O(|D|·|φ|) even through [$ref] sharing (Proposition 8's
    bound, which the structural interpreter does not meet).

    The decided relation is {e exactly} {!Validate.validates} for a
    compiled schema and {!Jlogic.Jsl.validates} for a compiled formula —
    the interpreters stay as the differential oracles, including the
    schema interpreter's conjunct-interaction fine print (last [items]
    wins, all [additionalProperties] apply, "named" keys are exempt).

    Metrics: span [validate.compile]; counters [validate.plan.nodes],
    [validate.compile.dfas], [validate.plan.runs], [validate.memo.hit].

    A compiled plan is safe to share across domains: its only mutable
    part is the stream executor's closure cache, one atomic slot per
    plan node, where a race at worst builds the same immutable closure
    twice.  The per-run memo table is private to each {!run_tree}
    call. *)

type t
(** A compiled schema document or JSL formula. *)

val compile : ?budget:Obs.Budget.t -> Schema.document -> t
(** Compile a document.  Checks {!Schema.well_formed} exactly once.
    [budget] bounds the compilation (one fuel unit per distinct
    subschema, recursion depth against the ceiling).
    @raise Invalid_argument if the schema is not well-formed. *)

val of_jsl :
  ?budget:Obs.Budget.t -> ?defs:(string * Jlogic.Jsl.t) list -> Jlogic.Jsl.t
  -> t
(** Compile a JSL formula into the same IR, hash-consing its distinct
    subformulas.  With [defs] the formula is the base of the recursive
    JSL expression [{defs; base}] ({!Jlogic.Jsl_rec}, Theorem 3):
    {!Jlogic.Jsl_rec.well_formed} is checked once, and each recursion
    symbol is one plan node whose id is reserved before its body is
    built, the way {!compile} resolves [$ref] cycles — so
    [of_jsl ~defs base] decides {!Jlogic.Jsl_rec.validates} and
    [of_jsl ~defs:r.defs r.base] for [r = To_jsl.document s] decides
    what [compile s] decides.  Without [defs] the formula must be
    closed.

    Conjuncts fold into one node: node tests into the type mask,
    bounds, DFA patterns or [enum]; [□_e] into the key-dispatch table
    (single-word [e]) or a DFA pattern property; [□_{i:j}] into a
    position range; [MinCh]/[MaxCh] into the property and array length
    bounds; [∨] and [¬] into [anyOf] groups and [not]s; [◇] is
    [type ∧ ¬□¬], as in {!Of_jsl}.  The plan's size
    depends only on the formula's shape, never on the numbers in it
    (unlike the Theorem 1 schema of {!Of_jsl}, which enumerates array
    lengths).  Both executors then decide {!Jlogic.Jsl.validates}
    (with [defs], {!Jlogic.Jsl_rec.validates}): a container [~(A)]
    spills in {!run_stream} like a container [enum].  [budget] bounds
    the compilation like {!compile}'s.
    @raise Invalid_argument on a free recursion symbol, on [defs] that
    are not well-formed (an undefined or twice-defined symbol, a
    precedence cycle), or on a negative array index.
    @raise Obs.Budget.Exhausted on formulas deeper than the ceiling. *)

val node_count : t -> int
(** Number of interned plan nodes (distinct subschemas or
    subformulas). *)

val run_tree : ?budget:Obs.Budget.t -> t -> Jsont.Tree.t -> bool
(** Validate a tree.  [budget] is charged one fuel unit per fresh
    (node, plan) evaluation — memo hits are free — and recursion depth
    is checked per level.  @raise Obs.Budget.Exhausted. *)

val run : ?budget:Obs.Budget.t -> t -> Jsont.Value.t -> bool
(** [run p v = run_tree p (Tree.of_value v)] — tree construction is
    charged to the same budget.  @raise Jsont.Value.Invalid on invalid
    values (negative numbers, duplicate keys), like every tree-based
    engine. *)

val run_stream :
  ?budget:Obs.Budget.t -> ?mode:[ `Strict | `Lenient ] -> t -> string
  -> bool
(** [run_stream p input] parses and validates [input] in one pass over
    the token stream, never materializing the document: memory is
    proportional to nesting depth plus the width of open containers,
    not to document size.  Per open container it keeps one frame of
    (plan id, obligation) state for the {e same-node closure} of the
    active plan nodes (everything reachable through
    [anyOf]/[allOf]/[not], which constrain the same value); type masks,
    bounds, required sets, key dispatch and position ranges resolve as
    tokens arrive, and subtrees no active node constrains are
    fast-forwarded by {!Jsont.Parser.skip_value} with every syntax /
    duplicate-key / literal-admission check intact.  Keywords that
    genuinely need the subtree — [uniqueItems] (JSL [Unique]), [enum]
    (JSL [~(A)]) on containers, plus the defensive case of a cyclic
    same-node closure — {e spill}:
    exactly that subtree is materialized through the
    {!Jsont.Tree.of_lexer_exn} column builder and decided by the
    {!run_tree} executor, then streaming resumes after it.

    The decided relation is exactly {!run_tree} ∘ {!Jsont.Tree.of_string}
    (hence also {!Validate.validates}); rendered errors on malformed
    documents are byte-identical to {!Jsont.Tree.of_string_exn}'s.
    [budget]: the depth ceiling follows document nesting with
    parser-identical positions; fuel is charged per streamed value (one
    parse unit plus one per active closure node), per skipped value
    (one), and per spilled value (first that same streamed-value
    charge, then the materialization's two per node plus {!run_tree}'s
    per-(node, plan) unit) — a single budget covers the fused
    parse+validate, where the two-stage route draws parse and run fuel
    separately.  Without [budget], the depth ceiling is the parser's
    default, {!Obs.Budget.default_max_depth}.  [mode] admits literals
    like the parser's (default [`Strict]).

    Allocation follows the value being decided, not the document: the
    closure of a single plan id is built once per plan (on first use,
    by whichever run or domain asks first) and reused by every run;
    per-id verdicts live in one [bool array] per streamed value; a
    spill's tree builder starts small and doubles, so it costs
    O(subtree).

    Counters: [validate.stream.runs], [validate.stream.spills],
    [validate.stream.skipped_bytes] (plus the shared [parse.values]).

    @raise Jsont.Parser.Parse_error on malformed input and budget
    exhaustion inside the streaming/parsing layers,
    @raise Obs.Budget.Exhausted from a spilled {!run_tree} execution,
    @raise Jsont.Lexer.Error on lexical errors. *)

val run_lexer :
  ?budget:Obs.Budget.t -> ?mode:[ `Strict | `Lenient ] -> t -> Jsont.Lexer.t
  -> bool
(** [run_lexer p lx] is {!run_stream} over an existing lexer: the
    document is whatever token stream [lx] yields up to [Eof].
    [run_stream p input = run_lexer p (Lexer.create input)].

    With a {!Jsont.Lexer.create_feed} lexer carrying a [refill]
    callback this validates a chunked byte stream — stdin, a socket, a
    file read in fixed-size slices — without ever holding the document
    in memory, and (by the lexer's resumption contract) with verdicts,
    errors and fuel charges byte-identical to the one-shot path. *)
