(** Satisfiability of JSL (Propositions 7 and 10).

    Thin front end over {!Jautomaton.find_model}: compile the formula
    (Lemmas 4/5) and run the profile-saturation emptiness search.
    Every [Sat] answer carries a witness document, which is re-checked
    against the source formula before being returned ([Sat] answers
    are therefore certified); [Unsat] answers are exact when the
    search saturated without truncation. *)

val satisfiable : ?budget:Obs.Budget.t -> Jsl.t -> Jautomaton.outcome
(** Non-recursive JSL (Proposition 7 setting).  [budget] is passed to
    {!Jautomaton.find_model}; exhaustion yields [Unknown].  The search
    runs under the [phase.sat] timing span. *)

val satisfiable_rec : ?budget:Obs.Budget.t -> Jsl_rec.t -> Jautomaton.outcome
(** Well-formed recursive JSL (Proposition 10 setting). *)

val models :
  ?limit:int -> ?budget:Obs.Budget.t -> Jsl.t
  -> Jsont.Value.t list * string option
(** Up to [limit] (default 5) pairwise-distinct documents satisfying
    the formula, by iterated witness exclusion: after finding [w], the
    search continues on [ϕ ∧ ¬~(w)].  Useful for generating example
    documents from schemas — the §5.2 remark motivates satisfiability
    by exactly this kind of tooling.  The second component is
    [Some reason] when a search answered [Unknown reason] — [budget]
    spent (one budget bounds all the searches) or the search's own
    bounds reached — before [limit] documents were found, and [None]
    when the enumeration found [limit] documents or showed there are
    no more. *)
