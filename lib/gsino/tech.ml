type t = {
  keff : Eda_sino.Keff.params;
  noise_bound_v : float;
  gcell_um : float;
  util_target : float;
  alpha : float;
  beta : float;
  gamma : float;
}

let default =
  {
    keff = Eda_sino.Keff.default;
    noise_bound_v = 0.15;
    gcell_um = 30.0;
    util_target = 0.65;
    alpha = 2.0;
    beta = 1.0;
    gamma = 50.0;
  }

(* The default technology's models are constants computed at build
   time (Default_models); no program asks for another Keff. *)
let lsk_model t =
  if t.keff = Eda_sino.Keff.default then Default_models.lsk
  else
    Eda_lsk.Table_builder.build ~keff:t.keff
      Eda_lsk.Table_builder.default_electrical

let estimate_coeffs () = Default_models.estimate

let grid_for t netlist = Eda_grid.Grid.auto ~util_target:t.util_target netlist
