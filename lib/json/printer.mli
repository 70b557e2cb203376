(** JSON serialization.

    {!Value.to_string} gives compact output; this module adds the
    pretty-printer.  Printing then re-parsing is the identity on valid
    values (tested). *)

val compact : Value.t -> string
(** Alias for {!Value.to_string}. *)

val pretty : Value.t -> string
(** [pretty v] renders [v] with newlines and two spaces per nesting
    level, in the style of Figure 1 of the paper. *)
