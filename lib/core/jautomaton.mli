(** J-automata: alternating automata over JSON trees (appendix of the
    paper, apparatus of Proposition 10).

    A state's rule is a positive boolean combination of (possibly
    negated) node tests, same-node state references (acyclic, playing
    the role of the paper's node-state layering ℓ(n) = s₀ ⊊ … ⊊ sₖ),
    and child quantifiers [∃/∀ over key expressions or index ranges]
    (the paper's [q∃e], [q∀e], [q∃i:j], [q∀i:j]).  Negation is
    compiled away by polarity duplication (alternating automata are
    closed under complement by swapping ∃/∀ and ∧/∨ — see the appendix
    remark), so rules stay positive.

    Three capabilities:
    - {!of_jsl} / {!of_jsl_rec}: the Lemma 4 / Lemma 5 compilations
      (linear in the formula, two states per subformula polarity);
    - {!accepts}: membership of a JSON tree, evaluated bottom-up by
      height — agrees with {!Jsl.eval} / {!Jsl_rec.validates}
      (property-tested);
    - {!find_model}: emptiness with witness extraction, by saturation
      over {e profiles} (the subsets of states realizable at the root
      of some tree — the reachable state-subsets of the proof of
      Proposition 10).  Leaf witnesses are realized exactly, by
      language algebra on the string constraints and bounded search on
      the arithmetic ones; composite witnesses are built with children
      drawn from already-realized profiles, with per-round budgets.
      The search is sound in both directions when it answers; it
      returns [Unknown] when budgets are exhausted before the profile
      space saturates. *)

type state = int

type rule =
  | R_true
  | R_false
  | R_and of rule * rule
  | R_or of rule * rule
  | R_test of Jsl.node_test  (** the node test holds here *)
  | R_not_test of Jsl.node_test
  | R_state of state  (** same-node reference (acyclic) *)
  | R_ex_keys of Rexp.Syntax.t * state
  | R_all_keys of Rexp.Syntax.t * state
  | R_ex_range of int * int option * state
  | R_all_range of int * int option * state

type t

val states : t -> int
val rule : t -> state -> rule
val init : t -> state

val of_jsl : Jsl.t -> t
(** Lemma 4.  @raise Invalid_argument on free recursion symbols. *)

val of_jsl_rec : Jsl_rec.t -> t
(** Lemma 5. *)

val accepts : t -> Jsont.Tree.t -> bool
(** Is there an accepting run on the tree? *)

val run_profile : t -> Jsont.Tree.t -> Jsont.Tree.node -> Bitset.t
(** The set of states holding at a node in the (unique, deterministic
    bottom-up) run — the node's profile. *)

type outcome =
  | Sat of Jsont.Value.t  (** a witness document accepted by the automaton *)
  | Unsat
  | Unknown of string  (** search budget exhausted; reason given *)

val find_model : ?budget:Obs.Budget.t -> t -> outcome
(** Emptiness via profile saturation.  The search runs at most 24
    rounds (tree height), tries at most 400 000 composite documents per
    round, and gives a constructed node at most 3 children beyond what
    the automaton's constraints demand.  It answers [Unknown] when the
    rounds run out before the profile space saturates, or when it
    saturates only under a truncated round.

    [budget] (default {!Obs.Budget.unlimited}) additionally bounds
    total work across rounds — one fuel unit per (candidate, state)
    rule evaluation plus the wall-clock deadline; exhaustion yields
    [Unknown (Obs.Budget.describe reason)] rather than an exception. *)
