(* Tests for Eda_netlist: nets, sensitivity model, benchmark generator. *)
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Generator = Eda_netlist.Generator

let p = Point.make

let two_pin id a b = Net.make ~id ~source:a ~sinks:[| b |]

let test_net_make () =
  let n = Net.make ~id:3 ~source:(p 0 0) ~sinks:[| p 1 2; p 3 0 |] in
  Alcotest.(check int) "pins" 3 (Net.num_pins n);
  Alcotest.check_raises "no sinks" (Invalid_argument "Net.make: net needs a sink")
    (fun () -> ignore (Net.make ~id:0 ~source:(p 0 0) ~sinks:[||]))

let test_net_bbox_hpwl () =
  let n = Net.make ~id:0 ~source:(p 2 3) ~sinks:[| p 5 1; p 0 4 |] in
  Alcotest.(check int) "hpwl" (5 + 3) (Net.hpwl n);
  Alcotest.(check bool) "bbox" true
    (Eda_geom.Rect.equal (Net.bbox n) (Eda_geom.Rect.make 0 1 5 4))

let test_netlist_validate () =
  let nets = [| two_pin 0 (p 0 0) (p 1 1); two_pin 1 (p 2 2) (p 3 3) |] in
  let nl = Netlist.make ~name:"t" ~grid_w:4 ~grid_h:4 ~gcell_um:10.0 nets in
  Netlist.validate nl;
  let bad = [| two_pin 0 (p 0 0) (p 9 0) |] in
  let nl2 = Netlist.make ~name:"bad" ~grid_w:4 ~grid_h:4 ~gcell_um:10.0 bad in
  Alcotest.(check bool) "off-grid pin detected" true
    (try
       Netlist.validate nl2;
       false
     with Invalid_argument _ -> true)

let test_netlist_id_mismatch () =
  let nets = [| two_pin 5 (p 0 0) (p 1 1) |] in
  let nl = Netlist.make ~name:"t" ~grid_w:4 ~grid_h:4 ~gcell_um:10.0 nets in
  Alcotest.(check bool) "id mismatch detected" true
    (try
       Netlist.validate nl;
       false
     with Invalid_argument _ -> true)

let test_netlist_hpwl_um () =
  let nets = [| two_pin 0 (p 0 0) (p 2 1) |] in
  let nl = Netlist.make ~name:"t" ~grid_w:4 ~grid_h:4 ~gcell_um:10.0 nets in
  Alcotest.(check (float 1e-9)) "total hpwl um" 30.0 (Netlist.total_hpwl_um nl);
  Alcotest.(check (float 1e-9)) "mean hpwl um" 30.0 (Netlist.mean_hpwl_um nl)

let test_sensitivity_symmetric () =
  let s = Sensitivity.make ~seed:3 ~rate:0.4 in
  for i = 0 to 40 do
    for j = 0 to 40 do
      Alcotest.(check bool) "symmetric" (Sensitivity.sensitive s i j)
        (Sensitivity.sensitive s j i)
    done
  done

let test_sensitivity_diagonal () =
  let s = Sensitivity.make ~seed:3 ~rate:1.0 in
  Alcotest.(check bool) "never self-sensitive" false (Sensitivity.sensitive s 7 7)

let test_sensitivity_extremes () =
  let s0 = Sensitivity.make ~seed:3 ~rate:0.0 in
  let s1 = Sensitivity.make ~seed:3 ~rate:1.0 in
  for i = 0 to 20 do
    for j = i + 1 to 20 do
      Alcotest.(check bool) "rate 0" false (Sensitivity.sensitive s0 i j);
      Alcotest.(check bool) "rate 1" true (Sensitivity.sensitive s1 i j)
    done
  done

let test_sensitivity_rate_empirical () =
  let s = Sensitivity.make ~seed:12 ~rate:0.3 in
  let hits = ref 0 and total = ref 0 in
  for i = 0 to 200 do
    for j = i + 1 to 200 do
      incr total;
      if Sensitivity.sensitive s i j then incr hits
    done
  done;
  let r = float_of_int !hits /. float_of_int !total in
  Alcotest.(check bool) "empirical rate ~ 0.3" true (Float.abs (r -. 0.3) < 0.02)

let test_sensitivity_bad_rate () =
  List.iter
    (fun (what, rate) ->
      Alcotest.check_raises what (Invalid_argument "Sensitivity.make: bad rate")
        (fun () -> ignore (Sensitivity.make ~seed:0 ~rate)))
    [ ("rate > 1", 1.5); ("rate < 0", -0.1); ("rate NaN", Float.nan) ]

let test_generator_profiles () =
  Alcotest.(check int) "six circuits" 6 (List.length Generator.all_ibm);
  Alcotest.(check bool) "lookup" true (Generator.find_ibm "ibm03" = Some Generator.ibm03);
  Alcotest.(check bool) "unknown" true (Generator.find_ibm "ibm99" = None)

let test_generator_determinism () =
  let a = Generator.generate ~scale:0.02 ~seed:5 Generator.ibm01 in
  let b = Generator.generate ~scale:0.02 ~seed:5 Generator.ibm01 in
  Alcotest.(check int) "same net count" (Netlist.num_nets a) (Netlist.num_nets b);
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) "same pins" true
        (Net.pins n = Net.pins b.Netlist.nets.(i)))
    a.Netlist.nets

let test_generator_seed_changes () =
  let a = Generator.generate ~scale:0.02 ~seed:5 Generator.ibm01 in
  let b = Generator.generate ~scale:0.02 ~seed:6 Generator.ibm01 in
  Alcotest.(check bool) "different placement" true
    (Array.exists2
       (fun m n -> Net.pins m <> Net.pins n)
       a.Netlist.nets b.Netlist.nets)

let test_generator_valid_and_scaled () =
  List.iter
    (fun scale ->
      let nl = Generator.generate ~scale ~seed:1 Generator.ibm02 in
      Netlist.validate nl;
      let expect = int_of_float (Float.round (float_of_int Generator.ibm02.Generator.n_nets *. scale)) in
      Alcotest.(check int) "net count scales" expect (Netlist.num_nets nl))
    [ 0.01; 0.03 ]

let test_generator_physical_invariance () =
  (* chip µm dims and target net lengths do not depend on scale *)
  let a = Generator.generate ~scale:0.01 ~seed:2 Generator.ibm01 in
  let b = Generator.generate ~scale:0.04 ~seed:2 Generator.ibm01 in
  let chip nl = float_of_int nl.Netlist.grid_w *. nl.Netlist.gcell_um in
  Alcotest.(check bool) "chip width stable within a gcell" true
    (Float.abs (chip a -. chip b) < 2.0 *. a.Netlist.gcell_um)

let test_generator_mean_length () =
  let nl = Generator.generate ~scale:0.15 ~seed:3 Generator.ibm05 in
  let m = Netlist.mean_hpwl_um nl in
  let target = Generator.ibm05.Generator.avg_wl_um in
  (* HPWL underestimates routed length; accept a generous band *)
  Alcotest.(check bool)
    (Printf.sprintf "mean HPWL %.0f within 40%% of %.0f" m target)
    true
    (m > 0.6 *. target && m < 1.4 *. target)

let test_generator_heavy_tail () =
  let nl = Generator.generate ~scale:0.15 ~seed:3 Generator.ibm05 in
  let lengths =
    Array.map (fun n -> float_of_int (Net.hpwl n)) nl.Netlist.nets
  in
  let median = Eda_util.Stats.percentile lengths 50.0 in
  let p95 = Eda_util.Stats.percentile lengths 95.0 in
  Alcotest.(check bool) "lognormal-like tail (p95 > 3x median)" true
    (p95 > 3.0 *. median)

let test_generator_uniform () =
  let nl =
    Generator.uniform ~name:"u" ~grid_w:10 ~grid_h:8 ~n_nets:50 ~mean_span:3.0 ~seed:4
  in
  Netlist.validate nl;
  Alcotest.(check int) "count" 50 (Netlist.num_nets nl);
  Array.iter
    (fun n -> Alcotest.(check int) "2-pin" 2 (Net.num_pins n))
    nl.Netlist.nets

let test_generator_bad_scale () =
  Alcotest.check_raises "scale 0 rejected"
    (Invalid_argument "Generator.generate: scale in (0,1]") (fun () ->
      ignore (Generator.generate ~scale:0.0 ~seed:1 Generator.ibm01))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"generated pins always on grid" ~count:20
      (pair (int_range 1 1000) (int_range 1 3))
      (fun (seed, pidx) ->
        let profile = List.nth Generator.all_ibm pidx in
        let nl = Generator.generate ~scale:0.01 ~seed profile in
        try
          Netlist.validate nl;
          true
        with Invalid_argument _ -> false);
    Test.make ~name:"sensitivity is stable across calls" ~count:100
      (triple (int_range 0 100) (int_range 0 100) (int_range 0 1000))
      (fun (i, j, seed) ->
        let s = Sensitivity.make ~seed ~rate:0.5 in
        Sensitivity.sensitive s i j = Sensitivity.sensitive s i j);
  ]

let suites =
  [
    ( "netlist.net",
      [
        Alcotest.test_case "make" `Quick test_net_make;
        Alcotest.test_case "bbox/hpwl" `Quick test_net_bbox_hpwl;
      ] );
    ( "netlist.netlist",
      [
        Alcotest.test_case "validate" `Quick test_netlist_validate;
        Alcotest.test_case "id mismatch" `Quick test_netlist_id_mismatch;
        Alcotest.test_case "hpwl um" `Quick test_netlist_hpwl_um;
      ] );
    ( "netlist.sensitivity",
      [
        Alcotest.test_case "symmetric" `Quick test_sensitivity_symmetric;
        Alcotest.test_case "diagonal" `Quick test_sensitivity_diagonal;
        Alcotest.test_case "extremes" `Quick test_sensitivity_extremes;
        Alcotest.test_case "empirical rate" `Quick test_sensitivity_rate_empirical;
        Alcotest.test_case "bad rate" `Quick test_sensitivity_bad_rate;
      ] );
    ( "netlist.generator",
      [
        Alcotest.test_case "profiles" `Quick test_generator_profiles;
        Alcotest.test_case "determinism" `Quick test_generator_determinism;
        Alcotest.test_case "seed changes" `Quick test_generator_seed_changes;
        Alcotest.test_case "valid and scaled" `Quick test_generator_valid_and_scaled;
        Alcotest.test_case "physical invariance" `Quick test_generator_physical_invariance;
        Alcotest.test_case "mean length" `Quick test_generator_mean_length;
        Alcotest.test_case "heavy tail" `Quick test_generator_heavy_tail;
        Alcotest.test_case "uniform" `Quick test_generator_uniform;
        Alcotest.test_case "bad scale" `Quick test_generator_bad_scale;
      ] );
    ("netlist.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
