(** Growable binary max-heap of int payloads keyed by float priority.

    Payloads are ints so that keys and payloads live in two flat arrays:
    callers encode richer entries as an int (the ID router packs a net
    and an edge into one).  Duplicates of a payload are allowed, which
    is what the lazy protocol needs: on pop, the caller recomputes the
    current key and re-inserts the payload if the popped key was stale.

    Which of several equal keys pops first is part of the contract,
    because callers' outputs depend on it.  Entries sit in the usual
    implicit binary tree; [push] moves a parent below the new entry
    while the parent's key is strictly smaller ([<]); [pop] moves the
    last entry to the root and then the larger child above it while the
    child's key is strictly larger ([>]), testing the left child first
    so that it wins a tie between the children.  Those are exactly the
    comparisons of the textbook swap-based sifts. *)

type t

(** [create ()] is an empty heap. *)
val create : unit -> t

(** [length h] is the number of stored entries (including stale ones). *)
val length : t -> int

val is_empty : t -> bool

(** [push h key v] inserts [v] with priority [key]. *)
val push : t -> float -> int -> unit

(** [top_key h] and [top h] are the largest key and its payload, and
    [pop h] removes that entry; popping in three calls builds no tuple.
    Each raises [Not_found] when empty. *)
val top_key : t -> float

val top : t -> int
val pop : t -> unit

val clear : t -> unit
