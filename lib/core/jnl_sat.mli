(** Satisfiability of JNL (Propositions 2 and 5).

    The decision procedure goes through Theorem 2: translate the
    formula to JSL (polynomial target fragment, possibly exponential
    source blow-up in the presence of path unions) and decide JSL
    satisfiability via J-automata.  Formulas outside the decidable
    fragments are rejected:

    - [EQ(α,β)] makes the recursive non-deterministic logic undecidable
      (Proposition 4) and is not expressible in JSL; rejected.
    - [Star] is rejected by the non-recursive translation; recursive
      star-free-equality formulas would need recursive JSL targets,
      which the Theorem 2 translation does not cover.

    Every [Sat] answer carries a witness document, re-checked against
    the original JNL formula with {!Jnl_eval.check_at}. *)

val satisfiable :
  ?budget:Obs.Budget.t -> Jnl.form -> (Jautomaton.outcome, string) result
(** [Error reason] when the formula lies outside the decidable
    translated fragment.  [budget] bounds the model search
    ({!Jsl_sat.satisfiable}); exhaustion yields [Ok (Unknown _)].  The
    translation runs under the [phase.translate] timing span. *)
