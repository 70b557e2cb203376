(** The JSON Schema Logic (JSL) of Section 5.2.

    JSL isolates the atomic keyword tests of JSON Schema into
    {!node_test} and its navigation into existential ([◇]) and universal
    ([□]) modalities over key expressions and array ranges
    (Definition 2).

    Numeric conventions:
    - [Min i] / [Max i] are interpreted inclusively ([val(n) ≥ i] /
      [val(n) ≤ i]) to agree with JSON Schema's [minimum] / [maximum]
      keywords and the examples of §5.1 (the schema with [maximum 12,
      multipleOf 4] is said to describe 0, 4, 8 {e and 12}).  The
      formal list in §5.2 reads "greater/smaller than [i]"; the paper's
      own examples force the inclusive reading, which we adopt.
    - Array positions are 0-based, consistent with the tree domains of
      §3.1 (children [n·0 … n·(k-1)]).

    The [Var] constructor carries the recursion symbols γ of §5.3; a
    formula containing free [Var]s is only meaningful inside a
    {!Jsl_rec.t}. *)

type node_test =
  | Is_obj  (** Obj *)
  | Is_arr  (** Arr *)
  | Is_str  (** Str *)
  | Is_int  (** Int *)
  | Unique
      (** all children of an array are pairwise distinct JSON values *)
  | Pattern of Rexp.Syntax.t  (** string value belongs to L(e) *)
  | Min of int  (** number value ≥ i *)
  | Max of int  (** number value ≤ i *)
  | Mult_of of int  (** number value is a multiple of i *)
  | Min_ch of int  (** at least i children (MinCh) *)
  | Max_ch of int  (** at most i children (MaxCh) *)
  | Eq_doc of Jsont.Value.t  (** [~(A)]: the subtree equals document A *)

type t =
  | True
  | Not of t
  | And of t * t
  | Or of t * t
  | Test of node_test
  | Dia_keys of Rexp.Syntax.t * t  (** ◇_e ϕ *)
  | Dia_range of int * int option * t  (** ◇_{i:j} ϕ ([None] = +∞) *)
  | Box_keys of Rexp.Syntax.t * t  (** □_e ϕ *)
  | Box_range of int * int option * t  (** □_{i:j} ϕ *)
  | Var of string  (** recursion symbol γ (see {!Jsl_rec}) *)

val ff : t
val conj : t list -> t
val disj : t list -> t

val dia_key : string -> t -> t
(** [◇_w] for a single word [w] — deterministic JSL. *)

val box_key : string -> t -> t
val dia_idx : int -> t -> t
val box_idx : int -> t -> t

val size : t -> int
val equal : t -> t -> bool

val uses_unique : t -> bool
(** Whether [Unique] occurs — the dividing line in Propositions 6, 7
    and 10. *)

val is_deterministic : t -> bool
(** Only single-word / single-index modalities (the deterministic JSL
    of §5.2). *)

val free_vars : t -> string list
(** Recursion symbols occurring in the formula, without duplicates. *)

val modal_depth : t -> int
(** Maximal nesting of modalities — bounds the height of models of
    non-recursive formulas (used by satisfiability search, Prop 7). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Concrete syntax, inverse of {!pp}:
    {v
      form ::= form '|' form | form '&' form | '!' form | '(' form ')'
             | 'true' | 'false' | '$' ident                (recursion symbol)
             | 'Obj' | 'Arr' | 'Str' | 'Int' | 'Unique'
             | 'Pattern(/re/)' | 'Min(i)' | 'Max(i)' | 'MultOf(i)'
             | 'MinCh(i)' | 'MaxCh(i)' | '~(json)'
             | ('dia'|'box') '(/re/)' form                 (key modality)
             | ('dia'|'box') '[' i (':' (j|'*'))? ']' form (index modality)
    v} *)

val parse : string -> (t, string) result
val parse_exn : string -> t

(** {1 Evaluation (Proposition 6)}

    O(|J|·|ϕ|) without [Unique]; the [Unique] test adds the pairwise
    child comparisons that give the O(|J|²·|ϕ|) bound. *)

type ctx

val context : ?budget:Obs.Budget.t -> Jsont.Tree.t -> ctx
(** Evaluation context.  [budget] (default {!Obs.Budget.unlimited})
    bounds the work: set-at-a-time evaluation burns [node_count] fuel
    per formula node, per-node evaluation burns one unit per visit, and
    formula recursion depth is checked against the budget's ceiling.
    Exhaustion raises {!Obs.Budget.Exhausted}. *)

val eval : ctx -> t -> Bitset.t
(** Satisfaction set over all nodes.  @raise Invalid_argument on free
    [Var]s.  @raise Obs.Budget.Exhausted when the context budget runs
    out. *)

val holds : ctx -> Jsont.Tree.node -> t -> bool

val validates : ?budget:Obs.Budget.t -> Jsont.Value.t -> t -> bool
(** [J ⊨ ψ]: satisfaction at the root, the schema-validation
    relation.  @raise Obs.Budget.Exhausted when [budget] runs out
    (during tree construction or evaluation). *)

val validates_bounded :
  ?budget:Obs.Budget.t -> Jsont.Value.t -> t -> (bool, string) result
(** Like {!validates} but budget exhaustion is returned as
    [Error (Obs.Budget.describe reason)] instead of raising. *)

val check_unique : Jsont.Tree.t -> Jsont.Tree.node -> bool
(** The [Unique] node test in isolation (shared with {!Jsl_rec} and the
    automaton membership checker). *)

val node_eval :
  ctx -> env:(string -> Jsont.Tree.node -> bool) -> Jsont.Tree.node -> t -> bool
(** Structural single-node evaluation, resolving each recursion symbol
    [Var γ] at a node through [env].  This is the inner step of the
    bottom-up recursive-JSL evaluator (Proposition 9). *)

val holds_test : ctx -> Jsont.Tree.node -> node_test -> bool
(** A single atomic node test. *)
