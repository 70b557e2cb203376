(** Static analysis on formulas and schemas: containment, equivalence
    and disjointness, all reduced to satisfiability (the paper's
    motivation for studying the Satisfiability problem in §4.2/§5.2 —
    "understanding basic tasks such as satisfiability are the first
    steps" toward schema learning and management).

    All reductions are the classical ones:
    - ϕ ⊑ ψ   iff   ϕ ∧ ¬ψ unsatisfiable,
    - ϕ ≡ ψ   iff   ϕ ⊑ ψ and ψ ⊑ ϕ,
    - ϕ ⊥ ψ   iff   ϕ ∧ ψ unsatisfiable,

    and inherit the decision procedure's three-valued outcome: a [No]
    answer carries a counterexample document.  [budget] (default
    {!Obs.Budget.unlimited}) bounds the search as in
    {!Jsl_sat.satisfiable}; one budget bounds both searches of
    {!equivalent}, and exhaustion yields [Inconclusive]. *)

type verdict =
  | Yes
  | No of Jsont.Value.t  (** a counterexample document *)
  | Inconclusive of string  (** the search gave up; reason given *)

val contained : ?budget:Obs.Budget.t -> Jsl.t -> Jsl.t -> verdict
(** [contained ϕ ψ]: is every document satisfying ϕ also satisfying ψ?
    [No w] gives a document with [w ⊨ ϕ] and [w ⊭ ψ]. *)

val equivalent : ?budget:Obs.Budget.t -> Jsl.t -> Jsl.t -> verdict
(** [No w] is a document on which the two formulas disagree. *)

val disjoint : ?budget:Obs.Budget.t -> Jsl.t -> Jsl.t -> verdict
(** [No w] satisfies both. *)

val contained_jnl :
  ?budget:Obs.Budget.t -> Jnl.form -> Jnl.form -> (verdict, string) result
(** Through the Theorem 2 translation; [Error] outside the decidable
    fragment. *)

val schema_compatible :
  ?budget:Obs.Budget.t -> old_:Jsl.t -> new_:Jsl.t -> unit -> verdict
(** Schema-evolution safety: are all documents valid under [old_] still
    valid under [new_]?  Alias of [contained old_ new_] with
    migration-flavoured naming; [No w] is a breaking-change witness. *)
