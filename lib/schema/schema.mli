(** Abstract syntax of the JSON Schema core fragment of Section 5.1 —
    exactly the keywords of Table 1, plus the [definitions]/[$ref]
    recursion of Section 5.3.

    A schema is a {e conjunction} of keyword constraints ({!conjunct});
    the empty conjunction is the empty schema [{}], which validates
    every document.

    Semantics follows the paper (and Pezoa et al. [29]) rather than
    every detail of draft-4; the notable points:

    - keywords are type-guarded: [pattern] constrains only strings,
      [minimum]/[maximum]/[multipleOf] only numbers, [minProperties]/
      [maxProperties]/[required] only objects, [uniqueItems]/[items]/
      [additionalItems] only arrays — a document of another type
      passes vacuously;
    - [items: \[J₁…Jₙ\]] "specifies a document with an array of n
      elements" (§5.1): the n positions must {e exist}; without
      [additionalItems] no further elements are allowed, with it the
      extra elements must validate against it;
    - [minimum]/[maximum] are inclusive (the §5.1 example describing
      0, 4, 8 and 12);
    - array positions are 0-based. *)

type jtype = T_object | T_array | T_string | T_number

type t = conjunct list

and conjunct =
  | C_type of jtype
  | C_pattern of Rexp.Syntax.t
  | C_minimum of int
  | C_maximum of int
  | C_multiple_of of int
  | C_min_properties of int
  | C_max_properties of int
  | C_required of string list
  | C_properties of (string * t) list
  | C_pattern_properties of (Rexp.Syntax.t * t) list
  | C_additional_properties of t
  | C_items of t list
  | C_additional_items of t
  | C_unique_items
  | C_any_of of t list
  | C_all_of of t list
  | C_not of t
  | C_enum of Jsont.Value.t list
  | C_ref of string  (** reference to a definition by name *)

type document = { definitions : (string * t) list; root : t }
(** A full schema document: its [definitions] section and the top-level
    schema. *)

val plain : t -> document
(** A document with no definitions. *)

val s_false : t
(** A schema no document validates against. *)

val well_formed : document -> (unit, string) result
(** Definition names unique, no [multipleOf 0] anywhere (it is
    satisfiable by no number — the validator would otherwise treat it
    as silently always-false), every [$ref] resolvable, and the
    reference precedence graph (references reachable without crossing
    a schema-descending keyword) acyclic — the well-formedness
    condition of §5.3 carried over from recursive JSL. *)

val to_value : document -> Jsont.Value.t
(** Render as a JSON document ("every JSON Schema is a JSON document
    itself"). *)

val pp : Format.formatter -> document -> unit
