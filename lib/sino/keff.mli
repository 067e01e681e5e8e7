(** The Keff inductive-coupling model (He/Lepak ISPD'00 [4] as used in
    §2.2), in the surrogate form documented in DESIGN.md §2.

    The coupling coefficient between two signal wires at track distance
    [d] with [n] shields strictly between them is

      K(d, n) = k1^d · shield_block^n

    - [k1^d] is the AR(1) decay of inductive coupling with separation —
      the same profile the circuit-level simulator uses, so the formula
      and the "SPICE" ground truth agree by construction at n = 0;
    - each intervening shield provides a closer return path and damps the
      residual coupling by [shield_block] (calibrated against
      {!Eda_circuit.Coupled_line}: a grounded shield leaves ≈ 25 % of the
      distance-predicted noise of a d = 2 pair).

    The total coupling K_i of net i is the sum of K over all *sensitive*
    aggressors (§2.1); non-sensitive neighbours do not malfunction the
    victim and are excluded, exactly as in the paper. *)

type params = private {
  k1 : float;  (** adjacent-track coupling, 0 ≤ k1 < 1 *)
  shield_block : float;  (** per-shield damping, 0 < shield_block ≤ 1 *)
  window : int;  (** neighbours beyond this distance are ignored *)
  coupling : float array;
      (** the coupling table, built by {!make}: K(d, n) at index
          [d * (window + 1) + n] for [0 ≤ d, n ≤ window].  Every per-layout
          K evaluation ({!Layout.k_of}, the solver's kernels) reads it in
          place of two [**] calls per coupling pair. *)
}

(** [make ~k1 ~shield_block ~window] — the parameters with their coupling
    table: each of the (window+1)² entries is computed by exactly the
    operations {!pair_coupling} performs, so a table read is bit-equal to
    the formula.  Raises [Invalid_argument] on a negative window. *)
val make : k1:float -> shield_block:float -> window:int -> params

val default : params

(** [pair_coupling p ~dist ~shields_between] is K(d, n); 0 beyond the
    window.  Requires [dist >= 1].  The definition the table is checked
    against. *)
val pair_coupling : params -> dist:int -> shields_between:int -> float

(** [max_feasible_k p] = 2·Σ_{d≥1} k1^d — an upper bound on any K_i in an
    unshielded layout; useful for normalizing budgets. *)
val max_feasible_k : params -> float
