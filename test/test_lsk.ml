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

(* The default table, entry by entry as (LSK, noise) in %h: the LU and
   transient kernels under it must reproduce every bit, and so must the
   copy computed when the library was built. *)
let default_table_golden =
  [
    "0x0p+0 0x0p+0";
    "0x1.9284444444446p+5 0x1.a9c338e873c14p-6";
    "0x1.9284444444446p+6 0x1.8c485baebd89dp-5";
    "0x1.2de3333333335p+7 0x1.0f782eca5fdcbp-4";
    "0x1.9284444444446p+7 0x1.3c4c0e3bfae5p-4";
    "0x1.f725555555557p+7 0x1.916ecd406f9e2p-4";
    "0x1.2de3333333335p+8 0x1.bb5c748c2b37ep-4";
    "0x1.6033bbbbbbbbdp+8 0x1.c2269ef80aeaap-4";
    "0x1.9284444444446p+8 0x1.17f0c8b7fc094p-3";
    "0x1.c4d4ccccccccfp+8 0x1.17f0c8b7fc094p-3";
    "0x1.f725555555557p+8 0x1.2a2bb7bc12297p-3";
    "0x1.14baeeeeeeefp+9 0x1.4318397df6355p-3";
    "0x1.2de3333333335p+9 0x1.4318397df6355p-3";
    "0x1.470b777777779p+9 0x1.4318397df6355p-3";
    "0x1.6033bbbbbbbbdp+9 0x1.470447ddf9172p-3";
    "0x1.795c000000002p+9 0x1.866717c227a91p-3";
    "0x1.9284444444446p+9 0x1.866717c227a91p-3";
    "0x1.abac88888888ap+9 0x1.866717c227a91p-3";
    "0x1.c4d4ccccccccfp+9 0x1.866717c227a91p-3";
    "0x1.ddfd111111112p+9 0x1.8cf6ad99b6226p-3";
    "0x1.f725555555557p+9 0x1.9f130e31013efp-3";
    "0x1.0826ccccccccep+10 0x1.b12f6ec84c5b7p-3";
    "0x1.14baeeeeeeefp+10 0x1.bab609953acbcp-3";
    "0x1.214f111111112p+10 0x1.bab609953acbcp-3";
    "0x1.2de3333333335p+10 0x1.bab609953acbcp-3";
    "0x1.3a77555555557p+10 0x1.bab609953acbcp-3";
    "0x1.470b777777779p+10 0x1.bab609953acbcp-3";
    "0x1.539f99999999ap+10 0x1.bab609953acbcp-3";
    "0x1.6033bbbbbbbbdp+10 0x1.bcd14d2ee2012p-3";
    "0x1.6cc7ddddddddfp+10 0x1.dedc7cec9d7d6p-3";
    "0x1.795c000000002p+10 0x1.dedc7cec9d7d6p-3";
    "0x1.85f0222222224p+10 0x1.dedc7cec9d7d6p-3";
    "0x1.9284444444446p+10 0x1.dedc7cec9d7d6p-3";
    "0x1.9f18666666668p+10 0x1.dedc7cec9d7d6p-3";
    "0x1.abac88888888ap+10 0x1.dedc7cec9d7d6p-3";
    "0x1.b840aaaaaaaacp+10 0x1.dedc7cec9d7d6p-3";
    "0x1.c4d4ccccccccfp+10 0x1.e0f40d28c0289p-3";
    "0x1.d168eeeeeeef1p+10 0x1.e580aeb3382c9p-3";
    "0x1.ddfd111111112p+10 0x1.ea0d503db0309p-3";
    "0x1.ea91333333335p+10 0x1.ee99f1c82834ap-3";
    "0x1.f725555555557p+10 0x1.f3269352a038bp-3";
    "0x1.01dcbbbbbbbbdp+11 0x1.f7b334dd183cbp-3";
    "0x1.0826ccccccccep+11 0x1.fc3fd6679040cp-3";
    "0x1.0e70ddddddddfp+11 0x1.00663bf904226p-2";
    "0x1.14baeeeeeeefp+11 0x1.00847b6959833p-2";
    "0x1.1b05000000001p+11 0x1.00847b6959833p-2";
    "0x1.214f111111112p+11 0x1.00847b6959833p-2";
    "0x1.2799222222223p+11 0x1.00847b6959833p-2";
    "0x1.2de3333333335p+11 0x1.00847b6959833p-2";
    "0x1.342d444444446p+11 0x1.00847b6959833p-2";
    "0x1.3a77555555557p+11 0x1.00847b6959833p-2";
    "0x1.40c1666666667p+11 0x1.00847b6959833p-2";
    "0x1.470b777777779p+11 0x1.00847b6959833p-2";
    "0x1.4d5588888888ap+11 0x1.00847b6959833p-2";
    "0x1.539f99999999ap+11 0x1.086739eddb076p-2";
    "0x1.59e9aaaaaaaacp+11 0x1.13d5daa0f3d32p-2";
    "0x1.6033bbbbbbbbdp+11 0x1.1f447b540c9ecp-2";
    "0x1.667dccccccccfp+11 0x1.2ab31c07256a8p-2";
    "0x1.6cc7ddddddddfp+11 0x1.30a2184a885a2p-2";
    "0x1.7311eeeeeeefp+11 0x1.32dc7914ca003p-2";
    "0x1.795c000000002p+11 0x1.3516d9df0ba65p-2";
    "0x1.7fa6111111112p+11 0x1.37513aa94d4c6p-2";
    "0x1.85f0222222224p+11 0x1.398b9b738ef27p-2";
    "0x1.8c3a333333335p+11 0x1.3bc5fc3dd0988p-2";
    "0x1.9284444444446p+11 0x1.3e005d08123eap-2";
    "0x1.98ce555555557p+11 0x1.403abdd253e4bp-2";
    "0x1.9f18666666668p+11 0x1.4189c03d70ec2p-2";
    "0x1.a562777777779p+11 0x1.4189c03d70ec2p-2";
    "0x1.abac88888888ap+11 0x1.4189c03d70ec2p-2";
    "0x1.b1f699999999cp+11 0x1.4189c03d70ec2p-2";
    "0x1.b840aaaaaaaacp+11 0x1.4189c03d70ec2p-2";
    "0x1.be8abbbbbbbbdp+11 0x1.4189c03d70ec2p-2";
    "0x1.c4d4ccccccccfp+11 0x1.4189c03d70ec2p-2";
    "0x1.cb1eddddddddfp+11 0x1.4189c03d70ec2p-2";
    "0x1.d168eeeeeeef1p+11 0x1.4189c03d70ec2p-2";
    "0x1.d7b3000000002p+11 0x1.4189c03d70ec2p-2";
    "0x1.ddfd111111112p+11 0x1.4189c03d70ec2p-2";
    "0x1.e447222222224p+11 0x1.4189c03d70ec2p-2";
    "0x1.ea91333333335p+11 0x1.4189c03d70ec2p-2";
    "0x1.f0db444444447p+11 0x1.4189c03d70ec2p-2";
    "0x1.f725555555557p+11 0x1.4189c03d70ec2p-2";
    "0x1.fd6f666666669p+11 0x1.4189c03d70ec2p-2";
    "0x1.01dcbbbbbbbbdp+12 0x1.4189c03d70ec2p-2";
    "0x1.0501c44444445p+12 0x1.4189c03d70ec2p-2";
    "0x1.0826ccccccccep+12 0x1.4189c03d70ec2p-2";
    "0x1.0b4bd55555556p+12 0x1.4189c03d70ec2p-2";
    "0x1.0e70ddddddddfp+12 0x1.4189c03d70ec2p-2";
    "0x1.1195e66666667p+12 0x1.46f424d4fab91p-2";
    "0x1.14baeeeeeeefp+12 0x1.4cff439bccc4ep-2";
    "0x1.17dff77777779p+12 0x1.530a62629ed0cp-2";
    "0x1.1b05000000001p+12 0x1.5915812970dc7p-2";
    "0x1.1e2a08888888ap+12 0x1.5f209ff042e84p-2";
    "0x1.214f111111112p+12 0x1.652bbeb714f4p-2";
    "0x1.247419999999bp+12 0x1.6b36dd7de6ffdp-2";
    "0x1.2799222222223p+12 0x1.7141fc44b90b9p-2";
    "0x1.2abe2aaaaaaacp+12 0x1.774d1b0b8b176p-2";
    "0x1.2de3333333335p+12 0x1.7d5839d25d234p-2";
    "0x1.31083bbbbbbbdp+12 0x1.836358992f2efp-2";
    "0x1.342d444444446p+12 0x1.896e7760013acp-2";
    "0x1.37524cccccccep+12 0x1.8f799626d3468p-2";
  ]

let test_default_table_golden () =
  let golden name m =
    Alcotest.(check (list string))
      name default_table_golden
      (Array.to_list
         (Array.map (fun (x, y) -> Printf.sprintf "%h %h" x y) (Lintable.entries m.Lsk.table)))
  in
  (* the table the library was built with, and the simulation now *)
  golden "built-in entries" Gsino.Tech.(lsk_model default);
  golden "simulated entries"
    (Table_builder.build ~keff:Gsino.Tech.default.Gsino.Tech.keff
       Gsino.Tech.default.Gsino.Tech.electrical)

(* The 98 transient simulations allocate little per step: minor words
   of one default build (the dense per-step solve and boxed inductance
   reads took 109.5M). *)
let test_default_table_allocation () =
  let w0 = Gc.minor_words () in
  ignore (Table_builder.build Table_builder.default_electrical);
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1fM minor words (budget 40M)" (words /. 1e6))
    true (words <= 40e6)

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
        Alcotest.test_case "default table golden" `Slow test_default_table_golden;
        Alcotest.test_case "default table allocation" `Slow
          test_default_table_allocation;
      ] );
  ]
