(** A MongoDB-style [find] front end (Section 4.1, Example 1), compiled
    onto the paper's logics.

    A {e filter} is a JSON document such as
    [{"name": {"$eq": "Sue"}, "age": {"$gte": 21}}]; the supported
    operators are [$eq $ne $gt $gte $lt $lte $exists $type $size
    $regex $in $nin $all $elemMatch $not $and $or $nor].  Dotted field paths
    ([address.city], [hobbies.0]) navigate nested documents; an
    all-digits segment addresses both an object key and an array
    position, and every segment also traverses one array level
    implicitly ([{"a.b": 5}] matches [{"a":[{"b":5}]}]), as MongoDB's
    path resolution does.

    Filters are given semantics {e by translation to JSL} ({!to_jsl}):
    navigation conditions of the form [P ~ J] become modal formulas, so
    the paper's claim that the find filter language embeds into its
    navigational logics is realized executably.  Equality-only filters
    translate further into pure JNL through Theorem 2
    ({!Jlogic.Translate}).

    Divergences from MongoDB proper (documented, deliberate): equality
    against an array does not also match individual elements, and
    comparison operators apply to numbers only (the model has a single
    atomic ordered type).

    The {e projection} argument of find — left as future work in
    Section 6 of the paper — is implemented in {!project}: inclusion
    and exclusion of dotted paths, defining a JSON-to-JSON
    transformation. *)

type path = string list
(** A dotted field path, split on ['.']. *)

type filter = cond list  (** conjunction *)

and cond =
  | F_field of path * constr list  (** all constraints hold of the field *)
  | F_and of filter list
  | F_or of filter list
  | F_nor of filter list

and constr =
  | Q_eq of Jsont.Value.t
  | Q_ne of Jsont.Value.t
  | Q_gt of int
  | Q_gte of int
  | Q_lt of int
  | Q_lte of int
  | Q_exists of bool
  | Q_type of string
      (** canonical: "object" | "array" | "string" | "number".  The
          parser also accepts Mongo's numeric BSON codes (1, 2, 3, 4,
          16, 18, 19) and aliases ("int", "long", "double",
          "decimal"), all numeric ones collapsing onto "number". *)
  | Q_size of int  (** array length *)
  | Q_regex of Rexp.Syntax.t  (** substring-search semantics, as Mongo *)
  | Q_in of in_elt list
  | Q_nin of in_elt list
  | Q_elem_match of filter  (** some array element matches the filter *)
  | Q_all of Jsont.Value.t list
      (** the array contains every listed value *)
  | Q_not of constr list

and in_elt =
  | I_val of Jsont.Value.t  (** literal membership *)
  | I_re of Rexp.Syntax.t
      (** a [{"$regex": "..."}] element — matches like [$regex] *)

val parse : Jsont.Value.t -> (filter, string) result
(** Parse a filter document. *)

val parse_string : string -> (filter, string) result
val parse_string_exn : string -> filter

val to_jsl : filter -> Jlogic.Jsl.t
(** The semantics: a JSL formula holding at exactly the documents the
    filter selects. *)

val to_jnl : filter -> (Jlogic.Jnl.form, string) result
(** Through Theorem 2; [Error] when the filter uses operators beyond
    the [~(A)]-fragment (e.g. [$gt], [$regex]). *)

val matches : filter -> Jsont.Value.t -> bool
(** Does a document pass the filter?  [matches f] compiles {!to_jsl}[ f]
    once into a {!Jschema.Validate.Plan} ({!Jschema.Validate.Plan.of_jsl});
    apply it partially to reuse the plan across documents.
    @raise Jsont.Value.Invalid on invalid values (negative numbers,
    duplicate keys). *)

val find : filter -> Jsont.Value.t list -> Jsont.Value.t list
(** Filter a collection — [db.collection.find(filter, {})] — through one
    compiled plan. *)

(** {1 Projection} *)

type projection =
  | Include of path list  (** keep only these paths (plus their spines) *)
  | Exclude of path list  (** drop these paths *)

val parse_projection : Jsont.Value.t -> (projection, string) result
(** [{"a.b": 1, "c": 1}] or [{"secret": 0}]; mixing 0s and 1s is an
    error, as in MongoDB. *)

val project : projection -> Jsont.Value.t -> Jsont.Value.t
(** Apply a projection to one document. *)
