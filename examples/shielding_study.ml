(* Shielding study: a single routing region under the microscope.

   Reproduces, at small scale, the studies behind the paper's model
   components: the SPICE-calibrated LSK table (§2.2), min-area SINO
   shield counts versus sensitivity, and the Formula-(3) closed-form
   estimate that the GSINO router uses to reserve shielding area.

   Run with:  dune exec examples/shielding_study.exe *)
module Rng = Eda_util.Rng
module Keff = Eda_sino.Keff
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Solver = Eda_sino.Solver
module Estimate = Eda_sino.Estimate
module Lsk = Eda_lsk.Lsk

let () =
  (* 1. the LSK -> noise table, built by simulating coupled RLC buses *)
  Format.printf "building the LSK table from circuit simulations...@.";
  let model = Eda_lsk.Table_builder.(build default_electrical) in
  Format.printf "%a@.@." Lsk.pp model;
  Format.printf "selected entries (LSK in um*K -> predicted noise):@.";
  List.iter
    (fun lsk -> Format.printf "  LSK %5.0f -> %.3f V@." lsk (Lsk.noise model ~lsk))
    [ 100.; 250.; 500.; 750.; 1000.; 1500. ];
  Format.printf "  0.15 V bound -> LSK budget %.0f um*K@.@."
    (Lsk.lsk_bound model ~noise:0.15);

  (* 2. min-area SINO on one region: shields vs sensitivity rate *)
  let keff = Keff.default in
  let solve_region ~n ~rate ~kth ~seed =
    let inst =
      Instance.make
        ~nets:(Array.init n (fun i -> i))
        ~kth:(Array.make n kth)
        ~sensitive:(fun i j -> i <> j && Rng.pair_hash ~seed i j < rate)
    in
    let layout = Solver.min_area ~params:keff (Rng.create seed) inst in
    (inst, layout)
  in
  Format.printf "min-area SINO in a 24-net region (Kth = 0.8 for every net):@.";
  Format.printf "  rate   shields  tracks  capacitive-free  K-feasible@.";
  List.iter
    (fun rate ->
      let _, layout = solve_region ~n:24 ~rate ~kth:0.8 ~seed:17 in
      Format.printf "  %3.0f%%   %4d     %4d       %b             %b@."
        (rate *. 100.)
        (Layout.num_shields layout)
        (Layout.num_tracks layout)
        (Layout.cap_violations layout = 0)
        (Layout.k_violations layout keff = []))
    [ 0.1; 0.3; 0.5; 0.7 ];

  (* 3. one concrete layout, drawn *)
  let _, layout = solve_region ~n:12 ~rate:0.5 ~kth:0.6 ~seed:23 in
  Format.printf "@.a solved 12-net region at rate 50%% (S = shield):@.  %a@.@."
    Layout.pp layout;

  (* 4. Formula (3): fit, then compare against fresh solver runs *)
  Format.printf "fitting Formula (3) coefficients against the solver...@.";
  let kth_of _ = 0.8 in
  let coeffs = Estimate.fit ~params:keff ~trials:200 ~seed:31 ~kth_of () in
  Format.printf "  %a@." Estimate.pp coeffs;
  let q = Estimate.accuracy ~params:keff ~trials:120 ~seed:32 ~kth_of coeffs in
  Format.printf
    "  accuracy: mean |err| %.2f shields; aggregate error %.1f%% (paper: <=10%%)@."
    q.Estimate.mean_abs_err
    (q.Estimate.aggregate_err *. 100.);
  Format.printf "  prediction at rate 40%%:@.";
  List.iter
    (fun n ->
      Format.printf "    Nns=%2d -> Nss ~ %.1f@." n
        (Estimate.predict_uniform coeffs ~nns:n ~rate:0.4))
    [ 8; 16; 24; 32; 40 ]
