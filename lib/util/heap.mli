(** Growable binary max-heap keyed by float priority.

    The iterative-deletion router needs "pop the globally heaviest edge"
    with keys that only ever decrease; the intended protocol is the lazy
    one: on pop, the caller recomputes the current key and re-inserts if
    stale.  Duplicates of the same payload are therefore allowed. *)

type 'a t

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** [length h] is the number of stored entries (including stale ones). *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h key v] inserts [v] with priority [key]. *)
val push : 'a t -> float -> 'a -> unit

(** [pop_max h] removes and returns the entry with the largest key.
    Raises [Not_found] when empty. *)
val pop_max : 'a t -> float * 'a

(** [peek_max h] returns the max entry without removing it. *)
val peek_max : 'a t -> float * 'a

(** [top_key h] and [top h] are the largest key and its payload, and
    [pop h] removes that entry: [pop_max] in three calls that build no
    tuple, for loops that pop millions of times.  Each raises
    [Not_found] when empty. *)
val top_key : 'a t -> float

val top : 'a t -> 'a
val pop : 'a t -> unit

val clear : 'a t -> unit
