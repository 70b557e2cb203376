(** Theorem 1 / Theorem 3, schema-to-logic direction: every JSON Schema
    document has an equivalent (recursive) JSL expression.

    Each conjunct becomes a conjunct of the JSL formula; navigation
    keywords become modalities ([properties]/[patternProperties] → □,
    [required] → ◇, [items]/[additionalItems] → index modalities), and
    [additionalProperties] quantifies over the {e complement} of the
    sibling key languages — computed with the language algebra of
    {!Rexp.Lang} and rendered back to an expression by state
    elimination.

    [definitions]/[$ref] become recursive-JSL definitions (Theorem 3);
    schema well-formedness maps onto JSL well-formedness. *)

val schema : Schema.t -> Jlogic.Jsl.t
(** Translate a bare schema.  Its [additionalProperties] conjuncts
    quantify over the keys its own [properties] and
    [patternProperties] conjuncts leave uncovered. *)

val document : Schema.document -> Jlogic.Jsl_rec.t
(** Translate a full document.  @raise Invalid_argument when the
    document is not well-formed. *)
