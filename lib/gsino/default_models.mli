(** The default technology's models, computed when the library is built.

    A rule in this directory's dune file runs [gen/gen_models.exe], which
    calls {!Eda_lsk.Table_builder.build} with the default electrical and
    Keff parameters and {!Eda_sino.Estimate.fit} with the default Kth
    sampler and seed, and prints their results as exact float literals.
    {!Tech} reads them in place of running those calls in every process. *)

(** The LSK → noise table of {!Eda_lsk.Table_builder.default_electrical}
    and {!Eda_sino.Keff.default}. *)
val lsk : Eda_lsk.Lsk.t

(** The Formula-(3) coefficients. *)
val estimate : Eda_sino.Estimate.coeffs
