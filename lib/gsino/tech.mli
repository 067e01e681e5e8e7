(** Technology and flow parameters: the paper's experimental setup
    (§4) — ITRS 0.10 µm, Vdd = 1.05 V, 3 GHz clock, crosstalk constraint
    0.15 V at every sink, ID weight constants α = 2, β = 1, γ = 50. *)

type t = {
  electrical : Eda_lsk.Table_builder.electrical;
  keff : Eda_sino.Keff.params;
  noise_bound_v : float;  (** per-sink RLC crosstalk constraint *)
  gcell_um : float;  (** routing-region pitch *)
  util_target : float;  (** average utilization the track capacities allow *)
  alpha : float;
  beta : float;
  gamma : float;
}

val default : t

(** [lsk_model t] — the LSK → noise table for this technology.  For
    the default electrical and Keff parameters
    ({!Eda_lsk.Table_builder.default_electrical}, {!Eda_sino.Keff.default})
    it is the table computed when the library was built
    ({!Default_models.lsk}).  Any other technology's table is built by a
    simulation sweep on first request and memoized per electrical and
    Keff parameters.  Safe to call from any domain. *)
val lsk_model : t -> Eda_lsk.Lsk.t

(** The Formula-3 coefficients fit with the default samplers and seed,
    computed when the library was built ({!Default_models.estimate}). *)
val estimate_coeffs : unit -> Eda_sino.Estimate.coeffs

(** [grid_for t netlist] — capacities per {!Eda_grid.Grid.auto} at this
    technology's utilization target. *)
val grid_for : t -> Eda_netlist.Netlist.t -> Eda_grid.Grid.t
