type t = {
  electrical : Eda_lsk.Table_builder.electrical;
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
    (* electrical values are calibrated so the 0.15 V bound puts the
       paper's 14–24 % of nets over it (see EXPERIMENTS.md) *)
    electrical = Eda_lsk.Table_builder.default_electrical;
    keff = Eda_sino.Keff.default;
    noise_bound_v = 0.15;
    gcell_um = 30.0;
    util_target = 0.65;
    alpha = 2.0;
    beta = 1.0;
    gamma = 50.0;
  }

(* The default technology's models are constants computed at build
   time (Default_models).  Any other technology's table is simulated on
   first request and memoized; it may be asked for from any domain
   (daemon workers, Eda_exec pools), so lookup and build run under one
   mutex: a concurrent requester waits for the build in progress instead
   of racing it. *)
let models_mu = Mutex.create ()

let lsk_models :
    (Eda_lsk.Table_builder.electrical * Eda_sino.Keff.params, Eda_lsk.Lsk.t)
    Hashtbl.t =
  Hashtbl.create 4

let lsk_model t =
  if
    t.electrical = Eda_lsk.Table_builder.default_electrical
    && t.keff = Eda_sino.Keff.default
  then Default_models.lsk
  else
    Mutex.protect models_mu (fun () ->
        let key = (t.electrical, t.keff) in
        match Hashtbl.find_opt lsk_models key with
        | Some m -> m
        | None ->
            let m = Eda_lsk.Table_builder.build ~keff:t.keff t.electrical in
            Hashtbl.add lsk_models key m;
            m)

let estimate_coeffs () = Default_models.estimate

let grid_for t netlist = Eda_grid.Grid.auto ~util_target:t.util_target netlist
