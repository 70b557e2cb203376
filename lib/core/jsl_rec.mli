(** Recursive JSL (Section 5.3): a list of definitions [γᵢ = ϕᵢ] and a
    base expression ψ, capturing JSON Schema's [definitions] / [$ref]
    mechanism (Theorem 3).

    {b Well-formedness.}  The precedence graph has an edge γᵢ → γⱼ when
    γⱼ occurs in ϕᵢ {e outside} the scope of any modal operator; the
    expression is well-formed when this graph is acyclic — the mild
    restriction (from Pezoa et al. [29]) that gives recursion a
    non-paradoxical semantics while still allowing cycles through
    modalities (Examples 2, 3).

    {b Semantics.}  Defined by unfolding to height |J|+1 and replacing
    leftover symbols by ⊥ ({!unfold}); evaluated in PTIME bottom-up by
    height (Proposition 9) by {!validates} / {!sat_table}.  The two
    agree (property-tested). *)

type t = { defs : (string * Jsl.t) list; base : Jsl.t }

val make : defs:(string * Jsl.t) list -> base:Jsl.t -> (t, string) result
(** Builds and checks well-formedness: every used symbol is defined, no
    symbol is defined twice, and the precedence graph is acyclic. *)

val make_exn : defs:(string * Jsl.t) list -> base:Jsl.t -> t
(** @raise Invalid_argument when ill-formed. *)

val well_formed : t -> (unit, string) result

val size : t -> int

val unfold : t -> height:int -> Jsl.t
(** [unfold_J(ψ)]: substitute definitions until every remaining symbol
    sits under at least [height + 1] modal operators, then replace the
    stragglers by ⊥.  Exponential in general — the specification
    semantics, kept for conformance testing. *)

val validates : ?budget:Obs.Budget.t -> Jsont.Value.t -> t -> bool
(** [J ⊨ Δ] by the bottom-up PTIME algorithm of Proposition 9.
    [budget] bounds tree construction and per-node evaluation
    ({!Jsl.context}); exhaustion raises {!Obs.Budget.Exhausted}. *)

val validates_by_unfolding : Jsont.Value.t -> t -> bool
(** [J ⊨ unfold_J(ψ)] — the reference semantics. *)

val sat_table :
  ?budget:Obs.Budget.t -> Jsont.Tree.t -> t -> (string * Bitset.t) list
(** For each definition symbol γ, the set of nodes whose subtree
    satisfies γ (the union over heights of the sets [S_k^J(γ)] from the
    proof of Proposition 9). *)

val holds_at :
  ?budget:Obs.Budget.t -> Jsont.Tree.t -> t -> Jsont.Tree.node -> bool
(** Satisfaction of the base expression at an arbitrary node. *)

val pp : Format.formatter -> t -> unit

(** Concrete syntax: semicolon-terminated definitions followed by the
    base expression, e.g.
    {v  $g1 = box(/.*/)$g2;  $g2 = dia(/.*/)true & box(/.*/)$g1;  $g1  v}
    Semicolons inside regex literals and string constants are
    handled. *)

val to_string : t -> string
val parse : string -> (t, string) result
(** Parses and checks well-formedness. *)

val parse_exn : string -> t
