(* Tests for Eda_lsk: the LSK model, table building from circuit
   simulation, and the fidelity claims of §2.2. *)
module Lsk = Eda_lsk.Lsk
module Table_builder = Eda_lsk.Table_builder
module Lintable = Eda_util.Lintable
module Keff = Eda_sino.Keff
module Coupled_line = Eda_circuit.Coupled_line

(* a small, fast model for tests: fewer configs and lengths *)
let small_model =
  lazy
    (Table_builder.build ~seed:5 ~entries:40 ~configs:6
       ~lengths_m:[ 0.5e-3; 1e-3; 2e-3 ]
       Table_builder.default_electrical)

let test_lsk_value () =
  Alcotest.(check (float 1e-12)) "sum of l*k" 170.0
    (Lsk.value [ (100.0, 0.5); (200.0, 0.6) ]);
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Lsk.value []);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Lsk.value: negative term") (fun () ->
      ignore (Lsk.value [ (-1.0, 0.5) ]))

let test_table_monotone () =
  let m = Lazy.force small_model in
  let e = Lintable.entries m.Lsk.table in
  for i = 0 to Array.length e - 2 do
    Alcotest.(check bool) "noise non-decreasing in LSK" true
      (snd e.(i) <= snd e.(i + 1) +. 1e-12)
  done

let test_table_origin () =
  let m = Lazy.force small_model in
  Alcotest.(check (float 1e-6)) "zero LSK, zero noise" 0.0 (Lsk.noise m ~lsk:0.0)

let test_noise_bound_roundtrip () =
  let m = Lazy.force small_model in
  let bound = Lsk.lsk_bound m ~noise:0.15 in
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  Alcotest.(check bool) "noise at bound <= 0.151" true (Lsk.noise m ~lsk:bound <= 0.151);
  Alcotest.(check bool) "just past the bound violates" true
    (Lsk.violates m ~lsk:(bound *. 1.25) ~bound_v:0.15
    || Lsk.noise m ~lsk:(bound *. 1.25) >= 0.149)

let test_violates () =
  let m = Lazy.force small_model in
  Alcotest.(check bool) "tiny LSK passes" false (Lsk.violates m ~lsk:1.0 ~bound_v:0.15)

let test_victim_keff_hand () =
  let open Coupled_line in
  let kp = Keff.default in
  (* A V: single aggressor at d=1 *)
  Alcotest.(check (float 1e-12)) "adjacent" kp.Keff.k1
    (Table_builder.victim_keff ~keff:kp [| Aggressor; Victim |] 1);
  (* A S V: d=2, one shield *)
  Alcotest.(check (float 1e-12)) "shielded"
    ((kp.Keff.k1 ** 2.0) *. kp.Keff.shield_block)
    (Table_builder.victim_keff ~keff:kp [| Aggressor; Shield; Victim |] 2);
  (* quiet wires add distance but no coupling *)
  Alcotest.(check (float 1e-12)) "quiet between"
    (kp.Keff.k1 ** 2.0)
    (Table_builder.victim_keff ~keff:kp [| Aggressor; Quiet; Victim |] 2);
  Alcotest.check_raises "not a victim"
    (Invalid_argument "Table_builder.victim_keff: not a victim") (fun () ->
      ignore (Table_builder.victim_keff ~keff:kp [| Aggressor; Victim |] 0))

let test_samples_structure () =
  let keff = Keff.default in
  let pts =
    Table_builder.samples ~seed:3 ~configs:4 ~lengths_m:[ 1e-3 ] ~keff
      Table_builder.default_electrical
  in
  Alcotest.(check int) "one sample per config-length" 4 (List.length pts);
  List.iter
    (fun (lsk, v) ->
      Alcotest.(check bool) "lsk >= 0" true (lsk >= 0.0);
      Alcotest.(check bool) "0 <= v < vdd" true (v >= 0.0 && v < 1.05))
    pts

(* The §2.2 fidelity claim: higher LSK -> higher simulated noise, i.e.
   strong rank correlation between the Keff-model LSK and SPICE noise. *)
let test_lsk_fidelity_rank_correlation () =
  let keff = Keff.default in
  let pts =
    Table_builder.samples ~seed:11 ~configs:10 ~lengths_m:[ 0.5e-3; 1e-3; 2e-3 ]
      ~keff Table_builder.default_electrical
  in
  let arr = Array.of_list pts in
  let n = Array.length arr in
  let concordant = ref 0 and discordant = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let li, vi = arr.(i) and lj, vj = arr.(j) in
      let dl = compare li lj and dv = compare vi vj in
      if dl <> 0 && dv <> 0 then
        if dl = dv then incr concordant else incr discordant
    done
  done;
  let tau =
    float_of_int (!concordant - !discordant)
    /. float_of_int (max 1 (!concordant + !discordant))
  in
  Alcotest.(check bool) (Printf.sprintf "Kendall tau %.2f >= 0.6" tau) true (tau >= 0.6)

(* The §2.2 linearity claim: noise roughly linear in length at fixed
   configuration, within the operating range. *)
let test_noise_linear_in_length () =
  let keff = Keff.default in
  let e = Table_builder.default_electrical in
  let drive =
    {
      Coupled_line.rd = e.Table_builder.rd;
      cl = e.Table_builder.cl;
      vdd = e.Table_builder.vdd;
      t_delay = e.Table_builder.t_delay;
      t_rise = e.Table_builder.t_rise;
    }
  in
  let noise len =
    Coupled_line.worst_victim_noise
      (Table_builder.spec_of e ~keff ~length_m:len)
      drive
      [| Coupled_line.Aggressor; Coupled_line.Victim |]
  in
  let v1 = noise 0.25e-3 and v2 = noise 0.5e-3 and v3 = noise 1.0e-3 in
  let r12 = v2 /. v1 and r23 = v3 /. v2 in
  (* increasing, roughly linear low on the curve, saturating later *)
  Alcotest.(check bool)
    (Printf.sprintf "0.25->0.5mm scales by %.2f (in [1.2, 2.5])" r12)
    true
    (r12 > 1.2 && r12 < 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "0.5->1mm still increases, sublinearly (%.2f)" r23)
    true
    (r23 > 1.05 && r23 <= r12 +. 0.2)

let test_default_model_range () =
  (* the shared default model covers the paper's 0.10-0.20V band *)
  let m = Gsino.Tech.(lsk_model default) in
  let lo = Lsk.lsk_bound m ~noise:0.10 and hi = Lsk.lsk_bound m ~noise:0.20 in
  Alcotest.(check bool) "0.10V reachable" true (lo > 0.0);
  Alcotest.(check bool) "band ordered" true (hi > lo);
  Alcotest.(check int) "100 entries" 100 (Lintable.size m.Lsk.table)

let suites =
  [
    ( "lsk.model",
      [
        Alcotest.test_case "value" `Quick test_lsk_value;
        Alcotest.test_case "table monotone" `Slow test_table_monotone;
        Alcotest.test_case "table origin" `Slow test_table_origin;
        Alcotest.test_case "bound roundtrip" `Slow test_noise_bound_roundtrip;
        Alcotest.test_case "violates" `Slow test_violates;
      ] );
    ( "lsk.table_builder",
      [
        Alcotest.test_case "victim keff hand values" `Quick test_victim_keff_hand;
        Alcotest.test_case "samples structure" `Slow test_samples_structure;
        Alcotest.test_case "LSK fidelity (rank corr)" `Slow test_lsk_fidelity_rank_correlation;
        Alcotest.test_case "noise ~ linear in length" `Slow test_noise_linear_in_length;
        Alcotest.test_case "default model range" `Slow test_default_model_range;
      ] );
  ]
