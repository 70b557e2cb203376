(** A JSONPath front end (Gössner's language, cited as [15] in §4.1),
    compiled to non-deterministic / recursive JNL paths.

    Supported syntax:
    {v
      $              the root
      .key  ['key']  child under a key
      .*    [*]      any child (object member or array element)
      ..key  ..*     recursive descent (any depth), then key / any child
      [i]            array index, negative from the end
      [i:j]          slice, [j] exclusive, either side optional and
                     negative from the end; a statically empty slice
                     (e.g. [2:2]) selects nothing
      [k1,k2] [0,2]  unions of keys or of indices
      [?(<jnl>)]     filter: keep nodes satisfying a JNL formula
                     (the concrete syntax of {!Jlogic.Jnl.parse})
    v}

    Quoted names decode the RFC 9535 escapes — backslash followed by
    either quote, backslash, slash, [b f n r t], or [uXXXX] (with
    surrogate pairs) — and reject anything else after a backslash.

    The compilation target is {!Jlogic.Jnl.path}; selection is plain
    path evaluation ({!Jlogic.Jnl_eval.succs} from the root), so every
    JSONPath query is literally a JNL query — the embedding claimed in
    §4.1.  Recursive descent uses [Star] over the any-child axis, and
    unions use the [Alt] extension. *)

val parse : string -> (Jlogic.Jnl.path, string) result
val parse_exn : string -> Jlogic.Jnl.path

val select :
  ?budget:Obs.Budget.t -> Jsont.Value.t -> string
  -> (Jsont.Value.t list, string) result
(** [select doc path] is the list of sub-documents matched, in document
    order ({!Jlogic.Jnl_eval.select}); [Error] when [path] does not
    parse.  [budget] (default {!Obs.Budget.unlimited}) bounds building
    the document's tree and evaluating the path.
    @raise Obs.Budget.Exhausted when it is spent. *)

val select_exn : Jsont.Value.t -> string -> Jsont.Value.t list

val select_nodes : Jsont.Tree.t -> Jlogic.Jnl.path -> Jsont.Tree.node list
(** Tree-level selection for callers that need node identities. *)

val select_with_paths :
  Jsont.Value.t -> string
  -> ((Jsont.Pointer.t * Jsont.Value.t) list, string) result
(** Selection returning each hit's normalized location (as a
    {!Jsont.Pointer.t}) along with its value. *)

val any_child : Jlogic.Jnl.path
(** The [.*] axis: [Alt (Keys Σ*, Range (0, ∞))]. *)

val descendant_or_self : Jlogic.Jnl.path
(** The [..] axis: [Star any_child]. *)
