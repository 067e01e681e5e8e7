(** Technology and flow parameters: the paper's experimental setup
    (§4) — ITRS 0.10 µm, Vdd = 1.05 V, 3 GHz clock, crosstalk constraint
    0.15 V at every sink, ID weight constants α = 2, β = 1, γ = 50.  The
    wires' electrical parameters are
    {!Eda_lsk.Table_builder.default_electrical}, calibrated so the 0.15 V
    bound puts the paper's 14–24 % of nets over it (EXPERIMENTS.md). *)

type t = {
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
    the default Keff parameters ({!Eda_sino.Keff.default}) it is the
    table computed when the library was built ({!Default_models.lsk});
    for any other it is built by a simulation sweep on every call.  It
    reads no mutable state, so any domain may call it. *)
val lsk_model : t -> Eda_lsk.Lsk.t

(** The Formula-3 coefficients fit with the default samplers and seed,
    computed when the library was built ({!Default_models.estimate}). *)
val estimate_coeffs : unit -> Eda_sino.Estimate.coeffs

(** [grid_for t netlist] — capacities per {!Eda_grid.Grid.auto} at this
    technology's utilization target. *)
val grid_for : t -> Eda_netlist.Netlist.t -> Eda_grid.Grid.t
