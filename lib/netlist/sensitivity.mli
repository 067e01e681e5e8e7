(** The paper's random symmetric sensitivity model (§4): with sensitivity
    rate [s], each signal net is sensitive to a random fraction [s] of the
    other nets; sensitivity is symmetric (aggressor/victim of each other).

    Realized as a pure hash of the unordered net-id pair, so the full n²
    matrix never materializes and lookups are O(1). *)

type t

(** [make ~seed ~rate] with [0. <= rate <= 1.]; any other rate, NaN
    included, raises [Invalid_argument]. *)
val make : seed:int -> rate:float -> t

val rate : t -> float
val seed : t -> int

(** [sensitive t i j] — are nets [i] and [j] sensitive to each other?
    Always false for [i = j]. *)
val sensitive : t -> int -> int -> bool

(** [segment_sensitivity t ~net ~neighbours] is the paper's [S_i] for a net
    segment sharing a region with [neighbours]: the fraction of the other
    segments in the region that are sensitive to [net].  Zero when the
    segment is alone. *)
val segment_sensitivity : t -> net:int -> neighbours:int array -> float

val pp : Format.formatter -> t -> unit
