(** Rectilinear Steiner minimum tree estimation.

    The paper normalizes the ID router's wire-length term by "the estimated
    wire length of the RSMT for the current net" (§3.1).  Exact RSMT is
    NP-hard; we use the classic iterated 1-Steiner heuristic on the Hanan
    grid, which is exact for up to 3 pins and within a few percent for the
    small fanouts global nets have. *)

(** [length pts] is the heuristic RSMT length.  For one point it is 0. *)
val length : Eda_geom.Point.t array -> int

(** [rectilinear_edges pts] is the tree over pins plus chosen Steiner
    points, as point pairs, suitable for conversion to L-shaped grid
    routes. *)
val rectilinear_edges :
  Eda_geom.Point.t array -> (Eda_geom.Point.t * Eda_geom.Point.t) list
