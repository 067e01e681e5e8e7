(** Builds the LSK → noise-voltage lookup table the way the paper does
    (§2.2): generate SINO-style layouts of a single routing region, compute
    each victim's LSK value with the Keff model, measure the corresponding
    crosstalk voltage with (our) SPICE on the equivalent coupled RLC bus,
    and tabulate.  Isotonic regression smooths simulation noise so the
    inverse lookup (voltage → LSK budget) is well defined. *)

(** Electrical/technology parameters of a global wire and its drivers —
    representative ITRS 0.10 µm values by default (Vdd 1.05 V, 3 GHz
    clocking ⇒ 30 ps edges). *)
type electrical = {
  r_per_m : float;
  l_per_m : float;
  c_per_m : float;
  cc_per_m : float;
  rd : float;
  cl : float;
  vdd : float;
  t_rise : float;
  t_delay : float;
  segments : int;  (** ladder segments per wire in simulation *)
}

val default_electrical : electrical

(** [spec_of e ~keff ~length_m] is the coupled-line spec with the Keff
    model's [k1] as the adjacent inductive coupling — the formula and the
    simulator share one geometry by construction. *)
val spec_of :
  electrical -> keff:Eda_sino.Keff.params -> length_m:float -> Eda_circuit.Coupled_line.spec

(** [victim_keff ~keff roles victim] evaluates the Keff surrogate on a
    bus role assignment (aggressors are the sensitive neighbours). *)
val victim_keff :
  keff:Eda_sino.Keff.params ->
  Eda_circuit.Coupled_line.wire_role array ->
  int ->
  float

(** [samples ?seed ?configs ?lengths_m ~keff e] runs the simulation sweep
    and returns raw [(lsk_um, noise_v)] points. *)
val samples :
  ?seed:int ->
  ?configs:int ->
  ?lengths_m:float list ->
  keff:Eda_sino.Keff.params ->
  electrical ->
  (float * float) list

(** [build ?seed ?entries ?configs ?lengths_m ?keff e] — the complete
    model; [entries] defaults to the paper's 100. *)
val build :
  ?seed:int ->
  ?entries:int ->
  ?configs:int ->
  ?lengths_m:float list ->
  ?keff:Eda_sino.Keff.params ->
  electrical ->
  Lsk.t
