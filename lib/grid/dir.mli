(** Routing direction.  The paper assumes one horizontal and one vertical
    over-the-cell layer; every track, segment and SINO instance belongs to
    exactly one direction. *)

type t = H | V

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val all : t list
