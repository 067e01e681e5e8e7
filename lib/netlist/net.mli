(** A signal net: one source pin and one or more sink pins, placed on the
    routing-region grid (pin coordinates are gcell indices). *)

type t = { id : int; source : Eda_geom.Point.t; sinks : Eda_geom.Point.t array }

(** [make ~id ~source ~sinks] checks that there is at least one sink. *)
val make : id:int -> source:Eda_geom.Point.t -> sinks:Eda_geom.Point.t array -> t

(** All pins, source first. *)
val pins : t -> Eda_geom.Point.t list

val num_pins : t -> int

(** Bounding box of all pins. *)
val bbox : t -> Eda_geom.Rect.t

(** Half-perimeter wire length lower bound, in gcell units. *)
val hpwl : t -> int

val pp : Format.formatter -> t -> unit
