(** Formula (3): the closed-form estimate of the number of shields the
    min-area SINO solution needs in a region, as a function of the number
    of net segments [Nns] and their sensitivities [S_i]:

      Nss ≈ a1·ΣS² + a2·(ΣS²)/N + a3·ΣS + a4·(ΣS)/N + a5·N + a6

    The paper takes the coefficients from its tech report [7]; we re-fit
    them with the same methodology — least squares against min-area SINO
    solutions over a sweep of instance sizes and sensitivity profiles —
    and verify the ~10 % accuracy claim in the test suite.  The static
    analyzer ([Eda_analyze]) reads the fitted coefficients for its Nss
    cross-check (GSL0027).  The ID router's Formula-2 weight does not use
    this estimate: it reserves shielding area with its own per-net
    demand model ([Gsino.Id_router.shield_demand]). *)

type coeffs = { a1 : float; a2 : float; a3 : float; a4 : float; a5 : float; a6 : float }

(** [features ~nns ~s] is the 6-vector of regressors. *)
val features : nns:int -> s:float array -> float array

(** [predict c ~nns ~s] — never negative (clamped). *)
val predict : coeffs -> nns:int -> s:float array -> float

(** [predict_uniform c ~nns ~rate] specializes to S_i = rate for all nets —
    the expectation under the paper's random sensitivity model, used in the
    routing loop where exact per-region memberships are too fluid. *)
val predict_uniform : coeffs -> nns:int -> rate:float -> float

(** [fit ?params ?trials ?seed ~kth_of ()] generates random instances
    (sizes 2–80, sensitivity rates 0.1–0.8), solves min-area SINO on each,
    and returns the least-squares coefficients.  [kth_of rng] samples the
    per-net K bound; use the distribution your budgeting produces.  The
    solves, here and in {!accuracy}, record their [sino.*] metrics in a
    private registry: the caller's registry is unchanged. *)
val fit :
  ?params:Keff.params ->
  ?trials:int ->
  ?seed:int ->
  kth_of:(Eda_util.Rng.t -> float) ->
  unit ->
  coeffs

(** Prediction quality of {!fit} against fresh solver runs. *)
type quality = {
  mean_abs_err : float;  (** shields, all instances *)
  rel_err_large : float;  (** mean relative error, instances with ≥ 5 shields *)
  aggregate_err : float;  (** |Σpred − Σactual| / Σactual — the paper's
                              "estimates differ by at most 10 %" regime *)
}

(** [accuracy ?params ?trials ?seed ~kth_of coeffs] replays fresh random
    instances and scores the prediction against the solver. *)
val accuracy :
  ?params:Keff.params ->
  ?trials:int ->
  ?seed:int ->
  kth_of:(Eda_util.Rng.t -> float) ->
  coeffs ->
  quality

(** [default_kth_sampler rng] — lognormal around the K budgets uniform
    crosstalk partitioning typically yields (median ≈ 0.7). *)
val default_kth_sampler : Eda_util.Rng.t -> float

val pp : Format.formatter -> coeffs -> unit
