(** The Theorem 2 translations between (non-recursive) JNL and JSL.

    The theorem relates non-deterministic JNL {e without} the binary
    equality [EQ(α,β)] and JSL whose only node test is [~(A)]:

    - {!jsl_to_jnl} is polynomial (each modality becomes one step);
    - {!jnl_to_jsl} threads a continuation through paths; path unions
      ([Alt]) duplicate the continuation, realizing the worst-case
      exponential growth the paper proves unavoidable for its
      substitution procedure.  (Chains of [⟨…∨…⟩] tests, the paper's
      illustration, stay linear here because a [Test] translates to a
      conjunction without duplication.)

    Constructs outside the theorem's scope ([Star], [Eq_paths],
    negative indices, node tests other than [~(A)], recursion symbols)
    are reported as [Error]s. *)

val jsl_to_jnl : Jsl.t -> (Jnl.form, string) result
(** Polynomial-time direction. *)

val jnl_to_jsl : Jnl.form -> (Jsl.t, string) result
(** Potentially exponential direction. *)

val alt_chain : int -> Jnl.form
(** [alt_chain n] is the blow-up family
    [⟨(.a|.b)(.a|.b)…⟩] with [n] alternations: its {!jnl_to_jsl}
    image has size Θ(2ⁿ).  Used by the E-T2 experiment. *)
