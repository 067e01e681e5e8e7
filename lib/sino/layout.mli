(** A SINO layout: the assignment of an instance's net segments (and
    inserted shields) to an ordered sequence of tracks, plus the metrics
    that define feasibility:

    - capacitive crosstalk freedom — no two sensitive nets on adjacent
      tracks (§2.1);
    - inductive bound — K_i ≤ Kth_i for every net, with K_i from the
      {!Keff} model. *)

type slot = Net of int  (** local net index *) | Shield

type t

(** [make inst slots] checks every local net appears exactly once. *)
val make : Instance.t -> slot array -> t

val instance : t -> Instance.t
val slots : t -> slot array
val num_tracks : t -> int
val num_shields : t -> int

(** [position t i] — track index of local net [i]. *)
val position : t -> int -> int

(** [k_of t p i] — K_i of local net [i] under Keff parameters [p]. *)
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

(** [insert_shield t pos] inserts a shield before track [pos]
    (0 ≤ pos ≤ num_tracks). *)
val insert_shield : t -> int -> t

(** [remove_shield t pos] removes the shield at track [pos]; raises
    [Invalid_argument] if that track is a net. *)
val remove_shield : t -> int -> t

(** [swap t a b] exchanges the contents of tracks [a] and [b]. *)
val swap : t -> int -> int -> t

val pp : Format.formatter -> t -> unit
