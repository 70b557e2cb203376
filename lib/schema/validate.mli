(** Direct JSON Schema validator — independent of the JSL machinery, so
    the Theorem 1 equivalence can be tested as the agreement of two
    separately implemented semantics.

    Follows the paper's semantics as documented in {!Schema}. *)

val validates :
  ?budget:Obs.Budget.t -> Schema.document -> Jsont.Value.t -> bool
(** Does the document validate against the schema?  [budget] bounds the
    work: one fuel unit per (schema, value) visit, recursion depth
    against the budget's ceiling.
    @raise Invalid_argument if the schema is not well-formed.
    @raise Obs.Budget.Exhausted when [budget] runs out. *)

val validates_schema : ?budget:Obs.Budget.t -> Schema.t -> Jsont.Value.t -> bool
(** Validate against a bare schema: no definitions, so no [$ref], and
    no well-formedness check. *)

val prepare :
  Schema.document -> ?budget:Obs.Budget.t -> Jsont.Value.t -> bool
(** [prepare doc] checks well-formedness {e once} and returns the
    per-document validator, so a batch run doesn't re-walk the schema
    for every document.  [validates doc v = prepare doc v].
    @raise Invalid_argument if the schema is not well-formed. *)

module Plan = Compile
(** The compiled fast path ({!Compile}): [Plan.run_tree (Plan.compile
    doc) t] decides the same relation as [validates doc] in
    O(|D|·|φ|). *)
