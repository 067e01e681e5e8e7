(** A SINO layout: the assignment of an instance's net segments (and
    inserted shields) to an ordered sequence of tracks, plus the metrics
    that define feasibility:

    - capacitive crosstalk freedom — no two sensitive nets on adjacent
      tracks (§2.1);
    - inductive bound — K_i ≤ Kth_i for every net, with K_i from the
      {!Keff} model.

    Tracks are held as int slots: a local net index, or {!shield}.  The
    solver works on raw slot arrays of that form, and this module owns
    the one K kernel ({!k_at}) and the one capacitive count
    ({!cap_violations_of}) over them: {!k_of}, {!feasible} and the
    solver's kernels all read these two. *)

(** The slot value of a shield track: [-1]. *)
val shield : int

type t

(** [make inst slots] checks every local net appears exactly once and
    every other slot is {!shield}; it keeps a copy of [slots]. *)
val make : Instance.t -> int array -> t

(** A copy of the tracks, in order. *)
val slots : t -> int array

val num_tracks : t -> int
val num_shields : t -> int

(** [k_at inst p slots track] — K of the net on [track] of the raw
    [slots] under Keff parameters [p]: the sensitive nets within the
    window, rightwards then leftwards, each pair's coupling read from
    [p]'s table with the shields between them counted. *)
val k_at : Instance.t -> Keff.params -> int array -> int -> float

(** [cap_violations_of inst slots] — adjacent sensitive pairs of the raw
    [slots]. *)
val cap_violations_of : Instance.t -> int array -> int

(** [k_of t p i] — K_i of local net [i]: {!k_at} on its track. *)
val k_of : t -> Keff.params -> int -> float

(** [k_all t p] — every net's K. *)
val k_all : t -> Keff.params -> float array

(** Number of adjacent sensitive pairs (capacitive violations). *)
val cap_violations : t -> int

(** How far K_i may exceed Kth_i and still pass (1e-12): every K
    against Kth test reads it, the solver's and {!Bound}'s too. *)
val k_tolerance : float

(** Nets with K_i > Kth_i + [k_tolerance] under [p]. *)
val k_violations : t -> Keff.params -> int list

(** No capacitive violation and no K violation. *)
val feasible : t -> Keff.params -> bool

(** [feasible_of_k t k] is [feasible t p] for [k = k_all t p], without
    evaluating K again. *)
val feasible_of_k : t -> float array -> bool

(** Tracks as [|S|] for a shield and [|id|] for a net's global id. *)
val pp : Format.formatter -> t -> unit
