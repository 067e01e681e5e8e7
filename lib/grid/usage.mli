(** Track accounting over the whole chip: per region and direction, how
    many tracks are taken by net segments ([nns]) and by shields ([nss]),
    plus the paper's congestion and routing-area metrics.

    Area model: a region's track pitch is [gcell / cap], so a region at or
    under capacity keeps its nominal footprint; shields or overflow beyond
    capacity stretch it.  The paper's Table 3 metric — "the product of the
    maximum row and column lengths" — is [max_r Σ_c width(c,r)] ×
    [max_c Σ_r height(c,r)]. *)

type t

val create : Grid.t -> gcell_um:float -> t
val grid : t -> Grid.t
val gcell_um : t -> float

(** [add_route u route] adds one track per occupied (region, dir) of the
    route. *)
val add_route : t -> Route.t -> unit

(** [of_routes grid ~gcell_um routes] accounts a full routing solution. *)
val of_routes : Grid.t -> gcell_um:float -> Route.t list -> t

(** Shield tracks are set per (region, dir) from the SINO solutions. *)
val set_shields : t -> int -> Dir.t -> int -> unit

val nns : t -> int -> Dir.t -> int
val nss : t -> int -> Dir.t -> int

(** [used u r d] = nns + nss. *)
val used : t -> int -> Dir.t -> int

(** [utilization u r d] = used / capacity. *)
val utilization : t -> int -> Dir.t -> float

(** [overflow u r d] = max 0 (used - capacity). *)
val overflow : t -> int -> Dir.t -> int

val total_overflow : t -> int
val total_shields : t -> int

(** Routing area metrics in µm: [(max_row_len, max_col_len, area)]. *)
val expanded_area : t -> float * float * float

(** [copy u] deep-copies the accounting (Phase III trials mutate it). *)
val copy : t -> t

val pp : Format.formatter -> t -> unit
