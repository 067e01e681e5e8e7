(** Phase I crosstalk-bound partitioning (§3.1).

    The sink noise constraint is mapped to an LSK budget through the table
    (inverse lookup), then divided uniformly along the source–sink path:
    every net segment on the path to sink j gets

      Kth = LSK_budget / L_e,ij

    with [L_e,ij] the source–sink Manhattan distance.  A segment shared by
    several sink paths takes the minimum of their bounds; before routing
    the tree is unknown, so we conservatively apply that minimum — i.e.
    the farthest sink's bound — to the whole net (exact for the 1-sink
    nets that dominate the benchmarks; see DESIGN.md). *)

type t = {
  lsk_budget : float;  (** LSK value allowed by the noise constraint *)
  kth : float array;  (** per-net inductive bound (µm-uniform) *)
}

(** [uniform ~lsk ~noise_v ~gcell_um netlist] computes the Phase I
    budget.  Distances shorter than one gcell are clamped to one gcell so
    bounds stay finite. *)
val uniform :
  lsk:Eda_lsk.Lsk.t ->
  noise_v:float ->
  gcell_um:float ->
  Eda_netlist.Netlist.t ->
  t

(** [route_aware ~lsk ~noise_v ~gcell_um ~grid ~routes netlist] — the §5
    "alternative crosstalk budgeting": divide each sink's LSK budget by
    the *actual routed* path length instead of the Manhattan estimate.
    Detoured nets get correspondingly tighter per-region bounds up front,
    so Phase II already accounts for them and Phase III's pass 1 has
    (almost) nothing left to fix — at the cost of needing the routes
    first.  The bench's budgeting ablation quantifies the trade. *)
val route_aware :
  lsk:Eda_lsk.Lsk.t ->
  noise_v:float ->
  gcell_um:float ->
  grid:Eda_grid.Grid.t ->
  routes:Eda_grid.Route.t array ->
  Eda_netlist.Netlist.t ->
  t

(** [kth t net] — the bound for net [net]. *)
val kth : t -> int -> float

val pp : Format.formatter -> t -> unit
