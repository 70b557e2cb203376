(** Evaluation of JNL over JSON trees (Propositions 1 and 3).

    Two evaluation strategies are provided:

    - {!eval} computes the full satisfaction set [⟦ϕ⟧_J] bottom-up over
      the formula, with node sets as bitsets and path pre-images
      computed set-at-a-time.  Boolean connectives cost O(|J|); single
      navigation steps walk the smaller of the step's label bucket and
      the target set — O(edges carrying the label) at worst; [Star] adds a
      semi-naive fixpoint bounded by the tree height; conjunctions run
      cheapest conjunct first and stop at an empty intersection;
      [Eq_paths] falls back to per-node successor enumeration with
      hash-indexed subtree comparison — matching the O(|J|·|ϕ|) bound
      of Proposition 1 on the EQ(α,β)-free fragment and the
      higher-degree polynomial of Proposition 3 with it.

      The algorithm is written once, as {!Make}, over a {!STORE} of
      nodes; this module's own entry points are its instance over
      {!Jsont.Tree.t}, and the corpus index instantiates it over the
      mapped index file (see [Jindex.Query]).

    - {!check_at} decides [n ∈ ⟦ϕ⟧_J] top-down with short-circuiting
      and no global set computation — the lightweight engine behind the
      MongoDB-find and JSONPath front ends, which evaluate filters at
      one node at a time.

    Both engines take single-step semantics — key/regex matching and
    the normalization of negative indices and ranges against array
    arity — from {!Jnl_step}, so they agree by construction on
    navigation (and are property-tested to agree overall). *)

(** {1 Node stores} *)

module type STORE = Jnl_store.S

(** The set-at-a-time evaluator over one store. *)
module Make (S : STORE) : sig
  type ctx

  val context : ?budget:Obs.Budget.t -> S.t -> ctx
  (** As {!Jnl_eval.context}. *)

  val eval : ctx -> Jnl.form -> Bitset.t

  val reorders : ctx -> int
  (** How many conjunctions the planner evaluated out of syntactic
      order so far. *)
end

(** {1 Over one tree} *)

type ctx
(** Evaluation context: the tree plus memo tables (per-subformula
    satisfaction sets, compiled regular expressions, per-expression
    matching keys) and a resource budget. *)

val context : ?budget:Obs.Budget.t -> Jsont.Tree.t -> ctx
(** [budget] (default {!Obs.Budget.unlimited}) bounds the work: the
    set-at-a-time evaluator burns [node_count] fuel per boolean
    connective, [1 + touched nodes] per label-indexed navigation step,
    the per-node checker one unit per visit, and formula recursion
    depth is checked against the budget's ceiling.  Exhaustion raises
    {!Obs.Budget.Exhausted} from any evaluation entry point.

    The first labelled step or conjunction builds the tree's label
    index (charged [node_count] fuel, once per tree). *)

val tree : ctx -> Jsont.Tree.t

val eval : ctx -> Jnl.form -> Bitset.t
(** [⟦ϕ⟧_J] as a set of nodes.  Memoized per context. *)

val pre : ctx -> Jnl.path -> Bitset.t -> Bitset.t
(** [pre ctx α S] = [{ n | ∃n' ∈ S. (n,n') ∈ ⟦α⟧_J }], one pre-image
    step — the primitive the set-at-a-time evaluator iterates, exposed
    for tests and direct callers. *)

val holds : ctx -> Jsont.Tree.node -> Jnl.form -> bool
(** [holds ctx n ϕ] iff [n ∈ ⟦ϕ⟧_J], via {!eval}. *)

val check_at : ctx -> Jsont.Tree.node -> Jnl.form -> bool
(** Top-down, short-circuiting check of a single node. *)

val succs : ctx -> Jnl.path -> Jsont.Tree.node -> Jsont.Tree.node list
(** [{ n' | (n, n') ∈ ⟦α⟧_J }] in document order, without duplicates. *)

val eval_pairs : ctx -> Jnl.path -> (Jsont.Tree.node * Jsont.Tree.node) list
(** The full binary relation [⟦α⟧_J] — O(|J|²) worst case; intended for
    tests and small documents. *)

val select :
  ?budget:Obs.Budget.t -> Jsont.Value.t -> Jnl.path -> Jsont.Value.t list
(** Convenience: the subdocuments reachable from the root through [α] —
    the "subdocument selecting" use case of §4.1. *)

val satisfies : ?budget:Obs.Budget.t -> Jsont.Value.t -> Jnl.form -> bool
(** Convenience: does the root of the document satisfy [ϕ]?  (The
    filter semantics of MongoDB's find, Example 1.)
    @raise Obs.Budget.Exhausted when [budget] runs out. *)

val satisfies_bounded :
  ?budget:Obs.Budget.t -> Jsont.Value.t -> Jnl.form -> (bool, string) result
(** Like {!satisfies} but budget exhaustion is returned as
    [Error (Obs.Budget.describe reason)] instead of raising. *)
