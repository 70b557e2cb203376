(** Duplicate-key detection for nested objects, in one table per parse.
    One key set per parse serves every reader: {!Parser.parse},
    {!Parser.skip_value}, the tree builders ({!Tree.of_string} and
    {!Tree.of_value} take one per tree), and the streaming validator,
    which shares its run's set with the values it skips and the
    subtrees it spills through {!Tree.of_lexer_exn}.

    An object takes a {!mark} when it opens, {!add}s its keys under
    that mark, and {!release}s them when it closes.  An object nested
    in another opens only after the enclosing one has added the key it
    is the value of, so the marks of the objects open at one time are
    distinct and one object's keys never collide with another's.  Keys
    are hashed by the caller with {!Lexer.hash_string} (or
    {!Lexer.string_hash} off the cursor), so one hash per key serves
    both this set and any other table keyed the same way. *)

type t

val create : unit -> t

val mark : t -> int
(** The mark of an object opening now. *)

val add : t -> int -> int -> string -> bool
(** [add t mark h key] inserts [key] (hash [h]) into the object with
    mark [mark]; [false], and no change, if that object already has
    it. *)

val mem : t -> int -> int -> string -> bool
(** [mem t mark h key]: does the object with mark [mark] have [key]? *)

val release : t -> int -> unit
(** [release t mark] deletes every key added since [mark] was taken:
    the closing object's, which are the newest entries. *)
