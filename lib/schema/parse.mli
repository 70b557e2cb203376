(** Parsing JSON Schema documents (which are themselves JSON values)
    into {!Schema.t}.

    Accepts the Table 1 keywords plus [definitions] (root only) and
    [$ref] (to [#/definitions/<name>]).  Since the paper's data model
    has no booleans, [uniqueItems] and boolean-valued
    [additionalProperties]/[additionalItems] accept the {e strings}
    ["true"]/["false"] (which is also what lenient JSON parsing turns
    literal [true]/[false] into).  An unknown keyword is an error. *)

val of_value : Jsont.Value.t -> (Schema.document, string) result
(** Parse and check well-formedness. *)

val of_string : string -> (Schema.document, string) result
(** Parse the JSON text (leniently, so [true]/[false] literals work),
    then {!of_value}. *)

val of_string_exn : string -> Schema.document
(** @raise Invalid_argument on errors. *)
