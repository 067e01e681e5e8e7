(* Focused tests of Phase III local refinement: violation elimination,
   congestion recovery, bookkeeping consistency and idempotence. *)
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Usage = Eda_grid.Usage
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
open Gsino

let tech = Tech.default

(* MD5 of every panel's slots, keys sorted, nets as global ids and
   shields as -1 *)
let slots_digest phase2 =
  let panels = ref [] in
  Phase2.iter phase2 (fun key s -> panels := (key, s) :: !panels);
  let b = Buffer.create 4096 in
  List.iter
    (fun ((r, d), s) ->
      Printf.bprintf b "%d %s:" r (Dir.to_string d);
      Array.iter
        (fun slot ->
          Printf.bprintf b " %d"
            (if slot = Layout.shield then -1 else Instance.net_id s.Phase2.inst slot))
        (Layout.slots s.Phase2.layout);
      Buffer.add_char b '\n')
    (List.sort (fun (a, _) (b, _) -> compare a b) !panels);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* a setup dense enough (rate 0.5) to force pass-1 work *)
let setup =
  lazy
    (let nl =
       Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:19
         Generator.ibm04
     in
     let grid, base = Flow.prepare tech nl in
     let sens = Sensitivity.make ~seed:23 ~rate:0.50 in
     let lsk_model = Tech.lsk_model tech in
     let budget =
       Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v
         ~gcell_um:nl.Netlist.gcell_um nl
     in
     let phase2 =
       Phase2.solve ~grid ~routes:base ~kth:(Budget.kth budget)
         ~sensitivity:sens ~keff:tech.Tech.keff ~mode:Phase2.Min_area ~seed:3 ()
     in
     let usage =
       Usage.of_routes grid ~gcell_um:nl.Netlist.gcell_um (Array.to_list base)
     in
     Phase2.apply_shields usage phase2;
     let pre_violations =
       Noise.violations ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2 ~lsk_model
         ~netlist:nl ~routes:base ~bound_v:tech.Tech.noise_bound_v ()
     in
     let stats =
       Refine.run ~grid ~netlist:nl ~routes:base ~phase2 ~usage ~lsk_model
         ~bound_v:tech.Tech.noise_bound_v ()
     in
     (* taken here, before any case can refine the store again *)
     let final = (Phase2.total_shields phase2, slots_digest phase2) in
     (nl, grid, base, phase2, usage, pre_violations, stats, final))

let test_pass1_eliminates () =
  let _, _, _, _, _, pre, stats, _ = Lazy.force setup in
  Alcotest.(check bool) "there was work to do" true (List.length pre > 0);
  Alcotest.(check int) "no residual violations" 0 stats.Refine.residual_violations;
  Alcotest.(check bool) "pass1 did the fixing" true
    (stats.Refine.pass1_nets_fixed > 0)

let test_post_violations_zero () =
  let nl, grid, base, phase2, _, _, _, _ = Lazy.force setup in
  let lsk_model = Tech.lsk_model tech in
  let v =
    Noise.violations ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2 ~lsk_model
      ~netlist:nl ~routes:base ~bound_v:tech.Tech.noise_bound_v ()
  in
  Alcotest.(check int) "recomputed violations also zero" 0 (List.length v)

let test_usage_sync () =
  (* after refinement, the usage accounting must match the phase2 store *)
  let _, _, _, phase2, usage, _, _, _ = Lazy.force setup in
  Phase2.iter phase2 (fun (r, d) s ->
      Alcotest.(check int)
        (Printf.sprintf "region %d %s shields in sync" r (Dir.to_string d))
        (Layout.num_shields s.Phase2.layout)
        (Usage.nss usage r d))

let test_layouts_still_capacitive_free () =
  let _, _, _, phase2, _, _, _, _ = Lazy.force setup in
  Phase2.iter phase2 (fun _ s ->
      Alcotest.(check int) "no adjacent sensitive pairs" 0
        (Layout.cap_violations s.Phase2.layout))

let test_idempotent () =
  (* a second refinement round finds nothing to fix *)
  let nl, grid, base, phase2, usage, _, _, _ = Lazy.force setup in
  let lsk_model = Tech.lsk_model tech in
  let stats2 =
    Refine.run ~grid ~netlist:nl ~routes:base ~phase2 ~usage ~lsk_model
      ~bound_v:tech.Tech.noise_bound_v ()
  in
  Alcotest.(check int) "no new fixes" 0 stats2.Refine.pass1_nets_fixed;
  Alcotest.(check int) "still zero residual" 0 stats2.Refine.residual_violations

let test_stats_printable () =
  let _, _, _, _, _, _, stats, _ = Lazy.force setup in
  let s = Format.asprintf "%a" Refine.pp_stats stats in
  Alcotest.(check bool) "non-empty rendering" true (String.length s > 20)

(* Pass 2's exact output on this setup: accepting other layouts, or the
   same ones in another order, moves the digest *)
let test_pass2_exact () =
  let _, _, _, _, _, _, stats, (shields, digest) = Lazy.force setup in
  Alcotest.(check int) "pass2 shields removed" 166 stats.Refine.pass2_shields_removed;
  Alcotest.(check int) "total shields" 669 shields;
  Alcotest.(check string) "final slots" "9fbbb2344a8cdff4fde69b11d75933bf" digest

let suites =
  [
    ( "gsino.refine",
      [
        Alcotest.test_case "pass1 eliminates violations" `Slow test_pass1_eliminates;
        Alcotest.test_case "post violations zero" `Slow test_post_violations_zero;
        Alcotest.test_case "usage stays in sync" `Slow test_usage_sync;
        Alcotest.test_case "layouts capacitive-free" `Slow test_layouts_still_capacitive_free;
        Alcotest.test_case "idempotent" `Slow test_idempotent;
        Alcotest.test_case "stats printable" `Slow test_stats_printable;
        Alcotest.test_case "pass2 exact output" `Slow test_pass2_exact;
      ] );
  ]
