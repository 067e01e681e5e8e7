(** Fixed-step trapezoidal transient analysis of an {!Mna} circuit.

    The system matrix is constant for a fixed step, so it is LU-factored
    once and each timestep is a single forward and back substitution —
    the standard linear-circuit fast path.  The factors are kept
    row-compressed ({!Eda_util.Matrix.lu_solve_into}), so a step walks
    only their non-zero entries, and the inductor flux terms read the
    inductance matrix's non-zero rows precomputed once per run; a step
    allocates no more than a few boxed floats.  The circuit is
    assumed at rest at t = 0 (all waveforms must start at 0; checked). *)

type result = {
  times : float array;
  data : float array array;  (** [data.(p).(k)] = probe [p] at [times.(k)] *)
}

(** [run c ~dt ~t_end ~probes] simulates from 0 to [t_end].
    Raises [Invalid_argument] on a non-positive step, an empty probe list,
    or a source that is non-zero at t = 0. *)
val run : Mna.t -> dt:float -> t_end:float -> probes:Mna.node list -> result

(** [peak_abs r p] is max_k |data.(p).(k)| — the crosstalk noise metric. *)
val peak_abs : result -> int -> float

(** [value_at r p t] linearly interpolates probe [p] at time [t]. *)
val value_at : result -> int -> float -> float

(** [crossing_time r p ~level] — the first time probe [p] reaches
    [level] from below (linear interpolation between samples); [None] if
    it never does.  The 50 %-Vdd delay probe. *)
val crossing_time : result -> int -> level:float -> float option

val num_steps : result -> int
