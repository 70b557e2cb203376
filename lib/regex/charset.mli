(** Sets of bytes — the alphabet Σ of the regular expressions used for
    keys and string patterns.

    The paper takes Σ to be the unicode characters; we work over UTF-8
    bytes, which yields the same languages for the byte-encoded strings
    stored by {!Jsont.Value} (regular languages over codepoints map to
    regular languages over their UTF-8 encodings).

    Represented as a 256-bit bitmap (four 64-bit words): all operations
    are O(1). *)

type t

val empty : t
val full : t
val singleton : char -> t
val range : char -> char -> t
(** [range lo hi] is the inclusive byte range. *)

val of_string : string -> t
(** Set of the bytes occurring in the string. *)

val mem : char -> t -> bool

val fill_mem : t -> bool array -> unit
(** [fill_mem s inside] sets [inside.(b)] to [mem (Char.chr b) s] for
    every byte [b], without allocating.
    @raise Invalid_argument unless [inside] has length 256. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val cardinal : t -> int

val choose : t -> char option
(** Smallest member, if any — used for witness extraction. *)

val iter : (char -> unit) -> t -> unit
val fold : (char -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> char list
val pp : Format.formatter -> t -> unit
