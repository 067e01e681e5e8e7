(* Tests for Eda_check: the Diag formatting contract and one corrupted
   fixture per Checker rule, plus end-to-end lint of the seeded flows. *)
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Lintable = Eda_util.Lintable
module Diag = Eda_check.Diag
module Checker = Eda_check.Checker
open Gsino

let p = Point.make

(* ------------------------------ Diag ------------------------------- *)

let test_diag_code_string () =
  Alcotest.(check string) "padded" "GSL0005" (Diag.code_string 5);
  Alcotest.(check string) "wide" "GSL1234" (Diag.code_string 1234)

let test_diag_make_rejects_bad_code () =
  let oor = Invalid_argument "Diag.make: code out of range" in
  Alcotest.check_raises "code 0" oor (fun () ->
      ignore (Diag.make ~code:0 Diag.Error "x"));
  Alcotest.check_raises "code 10000" oor (fun () ->
      ignore (Diag.make ~code:10000 Diag.Error "x"))

let test_diag_to_line () =
  Alcotest.(check string) "global" "GSL0001 E - boom"
    (Diag.to_line (Diag.make ~code:1 Diag.Error "boom"));
  Alcotest.(check string) "net" "GSL0008 E net=12 bad budget"
    (Diag.to_line (Diag.make ~code:8 Diag.Error ~locus:(Diag.Net 12) "bad budget"));
  Alcotest.(check string) "region" "GSL0005 W region=17/H over capacity"
    (Diag.to_line
       (Diag.make ~code:5 Diag.Warning
          ~locus:(Diag.Region (17, Dir.H))
          "over capacity"))

let test_diag_one_line () =
  (* newlines in messages must not break the one-diagnostic-per-line
     contract relied on by CI greps *)
  let d = Diag.make ~code:3 Diag.Info "multi\nline\rmessage" in
  Alcotest.(check bool) "no newline" false (String.contains (Diag.to_line d) '\n');
  Alcotest.(check string) "spaces instead" "multi line message" d.Diag.message

let test_diag_pp () =
  Alcotest.(check string) "pretty region"
    "warning[GSL0005] region 17/V: over capacity"
    (Format.asprintf "%a" Diag.pp
       (Diag.make ~code:5 Diag.Warning ~locus:(Diag.Region (17, Dir.V)) "over capacity"));
  Alcotest.(check string) "pretty global" "error[GSL0009] bad bound"
    (Format.asprintf "%a" Diag.pp (Diag.make ~code:9 Diag.Error "bad bound"))

let test_diag_sort () =
  let w5 = Diag.make ~code:5 Diag.Warning "w" in
  let e9 = Diag.make ~code:9 Diag.Error "e" in
  let e2a = Diag.make ~code:2 Diag.Error ~locus:(Diag.Net 3) "a" in
  let e2b = Diag.make ~code:2 Diag.Error ~locus:(Diag.Net 1) "b" in
  Alcotest.(check (list string)) "errors first, then code, then locus"
    [ "b"; "a"; "e"; "w" ]
    (List.map (fun d -> d.Diag.message) (Diag.sort [ w5; e9; e2a; e2b ]))

let test_diag_counts () =
  let ds =
    [
      Diag.make ~code:1 Diag.Error "a";
      Diag.make ~code:2 Diag.Error "b";
      Diag.make ~code:5 Diag.Warning "c";
    ]
  in
  Alcotest.(check int) "errors" 2 (Diag.count Diag.Error ds);
  Alcotest.(check int) "info" 0 (Diag.count Diag.Info ds);
  Alcotest.(check bool) "has errors" true (Diag.has_errors ds);
  Alcotest.(check bool) "warnings only" false
    (Diag.has_errors [ Diag.make ~code:5 Diag.Warning "c" ]);
  Alcotest.(check string) "summary" "2 errors, 1 warning, 0 info"
    (Format.asprintf "%a" Diag.pp_summary ds)

(* --------------------------- Checker fixture ------------------------ *)

(* A tiny hand-built solution every rule accepts: two nets with straight
   horizontal routes on a 4x2 grid, uniform Kth partitioned from a
   1000-LSK budget, one zero-shield panel per occupied (region, dir). *)
let base () =
  let grid = Grid.make ~w:4 ~h:2 ~hcap:4 ~vcap:4 in
  let gcell_um = 100.0 in
  let nets =
    [|
      Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 2 0 |];
      Net.make ~id:1 ~source:(p 0 1) ~sinks:[| p 1 1 |];
    |]
  in
  let netlist = Netlist.make ~name:"fix" ~grid_w:4 ~grid_h:2 ~gcell_um nets in
  let routes =
    [|
      Route.of_edges grid ~net:0
        [ Grid.edge_id grid (p 0 0) Dir.H; Grid.edge_id grid (p 1 0) Dir.H ];
      Route.of_edges grid ~net:1 [ Grid.edge_id grid (p 0 1) Dir.H ];
    |]
  in
  let usage = Usage.of_routes grid ~gcell_um (Array.to_list routes) in
  (* manhattan source-sink distances are 2 and 1 gcells *)
  let kth = [| 5.0; 10.0 |] in
  let panels =
    List.concat
      (List.mapi
         (fun i r ->
           List.map
             (fun (region, dir) ->
               {
                 Checker.region;
                 dir;
                 shields = 0;
                 nets = [| i |];
                 kth = [| kth.(i) |];
                 feasible = true;
                 degraded = false;
               })
             (Route.occupied grid r))
         (Array.to_list routes))
  in
  {
    Checker.netlist;
    grid;
    routes;
    lsk_budget = 1000.0;
    kth;
    lsk_table = Lintable.of_points [ (0.0, 0.0); (1000.0, 0.2) ];
    sensitive = (fun _ _ -> false);
    usage;
    panels;
    total_shields = 0;
    violations = [];
    bound_v = 0.15;
    metrics = [ ("total_wl_um", 300.0) ];
    deadline_phases = [];
    keff = Eda_sino.Keff.default;
  }

let codes sol = List.map (fun d -> d.Diag.code) (Checker.run sol)

let fires name code sol =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s" name (Diag.code_string code))
    true
    (List.mem code (codes sol))

let test_clean_fixture () =
  Alcotest.(check (list int)) "no findings" [] (codes (base ()))

let test_rule_codes_unique () =
  Alcotest.(check (list int)) "codes 1..16 + 18..19 + 28, one rule each"
    (List.init 16 (fun i -> i + 1) @ [ 18; 19; 28 ])
    (List.sort compare (List.map (fun (c, _, _) -> c) Checker.rules))

let test_gsl0001_off_grid_route () =
  let sol = base () in
  (* valid on a bigger grid, so the edge id passes Route.of_edges but
     exceeds the solution grid's 10 edges *)
  let big = Grid.make ~w:10 ~h:10 ~hcap:4 ~vcap:4 in
  let rogue = Route.of_edges big ~net:0 [ Grid.num_edges big - 1 ] in
  let routes = Array.copy sol.Checker.routes in
  routes.(0) <- rogue;
  fires "off-grid edge id" 1 { sol with Checker.routes }

let test_gsl0002_disconnected_route () =
  let sol = base () in
  let routes = Array.copy sol.Checker.routes in
  (* drop the second hop: the route no longer reaches sink (2,0) *)
  routes.(0) <-
    Route.of_edges sol.Checker.grid ~net:0
      [ Grid.edge_id sol.Checker.grid (p 0 0) Dir.H ];
  fires "missing edge to sink" 2 { sol with Checker.routes }

let test_gsl0003_cyclic_route () =
  let sol = base () in
  let g = sol.Checker.grid in
  let routes = Array.copy sol.Checker.routes in
  routes.(0) <-
    Route.of_edges g ~net:0
      [
        Grid.edge_id g (p 0 0) Dir.H;
        Grid.edge_id g (p 0 1) Dir.H;
        Grid.edge_id g (p 0 0) Dir.V;
        Grid.edge_id g (p 1 0) Dir.V;
      ];
  fires "square cycle" 3 { sol with Checker.routes }

let test_gsl0004_route_count () =
  let sol = base () in
  fires "missing route" 4
    { sol with Checker.routes = [| sol.Checker.routes.(0) |] }

let test_gsl0004_wrong_owner () =
  let sol = base () in
  let routes = Array.copy sol.Checker.routes in
  routes.(0) <-
    Route.of_edges sol.Checker.grid ~net:1
      (Array.to_list (Route.edges sol.Checker.routes.(0)));
  fires "slot belongs to other net" 4 { sol with Checker.routes }

let test_gsl0005_over_capacity_is_warning () =
  let sol = base () in
  let usage = Usage.copy sol.Checker.usage in
  let r00 = Grid.region_id sol.Checker.grid (p 0 0) in
  Usage.set_shields usage r00 Dir.H 10;
  let sol =
    {
      sol with
      Checker.usage;
      total_shields = 10;
      (* keep shield accounting consistent so only the capacity rule fires *)
      panels =
        {
          Checker.region = r00;
          dir = Dir.H;
          shields = 10;
          nets = [| 0 |];
          kth = [| 5.0 |];
          feasible = true;
          degraded = false;
        }
        :: sol.Checker.panels;
    }
  in
  let diags = Checker.run sol in
  Alcotest.(check bool) "GSL0005 fires" true
    (List.exists (fun d -> d.Diag.code = 5) diags);
  Alcotest.(check bool) "overflow is a warning, not an error" false
    (Diag.has_errors diags)

let test_gsl0006_usage_mismatch () =
  let sol = base () in
  let usage = Usage.copy sol.Checker.usage in
  (* phantom double-accounting of net 1's track *)
  Usage.add_route usage sol.Checker.routes.(1);
  fires "net-track recount differs" 6 { sol with Checker.usage }

let test_gsl0007_shield_mismatch () =
  let sol = base () in
  let panels =
    match sol.Checker.panels with
    | first :: rest -> { first with Checker.shields = 2 } :: rest
    | [] -> assert false
  in
  fires "panel shields not in usage" 7 { sol with Checker.panels }

let test_gsl0008_budget_partition () =
  let sol = base () in
  (* 10 * 2 gcells * 100um = 2000, not the 1000 budget *)
  fires "kth does not recover budget" 8
    { sol with Checker.kth = [| 10.0; 10.0 |] }

let test_gsl0009_bad_kth () =
  let sol = base () in
  fires "negative bound" 9 { sol with Checker.kth = [| -1.0; 10.0 |] };
  fires "nan bound" 9 { sol with Checker.kth = [| Float.nan; 10.0 |] };
  fires "wrong length" 9 { sol with Checker.kth = [| 5.0 |] }

let test_gsl0010_sensitivity () =
  let sol = base () in
  fires "asymmetric" 10
    { sol with Checker.sensitive = (fun i j -> i = 0 && j = 1) };
  fires "self-sensitive" 10 { sol with Checker.sensitive = (fun i j -> i = j) }

let test_gsl0011_lsk_table () =
  let sol = base () in
  fires "decreasing noise" 11
    {
      sol with
      Checker.lsk_table =
        Lintable.of_points [ (0.0, 0.5); (10.0, 0.2); (20.0, 0.1) ];
    }

let test_gsl0012_bad_metric () =
  let sol = base () in
  fires "nan metric" 12 { sol with Checker.metrics = [ ("area_um2", Float.nan) ] };
  fires "negative metric" 12
    { sol with Checker.metrics = [ ("total_wl_um", -1.0) ] };
  fires "negative violation noise" 12
    { sol with Checker.violations = [ (0, -0.2) ] }

let test_gsl0013_panel_coverage () =
  let sol = base () in
  (* drop net 0's panels: its occupied regions lose SINO coverage *)
  let dropped =
    List.filter (fun pl -> pl.Checker.nets <> [| 0 |]) sol.Checker.panels
  in
  fires "uncovered region" 13 { sol with Checker.panels = dropped };
  let misattributed =
    List.map (fun pl -> { pl with Checker.nets = [| 1 |] }) sol.Checker.panels
  in
  fires "panel without crossing net" 13 { sol with Checker.panels = misattributed }

let test_gsl0014_infeasible_panel () =
  let sol = base () in
  let panels =
    match sol.Checker.panels with
    | first :: rest -> { first with Checker.feasible = false } :: rest
    | [] -> assert false
  in
  let diags = Checker.run { sol with Checker.panels } in
  Alcotest.(check bool) "GSL0014 fires" true
    (List.exists (fun d -> d.Diag.code = 14) diags);
  Alcotest.(check bool) "infeasibility is a warning" false (Diag.has_errors diags)

let test_gsl0018_degraded_panel () =
  let sol = base () in
  let panels =
    match sol.Checker.panels with
    | first :: rest -> { first with Checker.degraded = true } :: rest
    | [] -> assert false
  in
  let diags = Checker.run { sol with Checker.panels } in
  Alcotest.(check bool) "GSL0018 fires" true
    (List.exists (fun d -> d.Diag.code = 18) diags);
  Alcotest.(check bool) "degradation is a warning" false (Diag.has_errors diags)

let test_gsl0028_shield_lower_bound () =
  (* both nets in one feasible panel, mutually sensitive: the clique
     forces a shield between them, so claiming 0 shields is an error *)
  let corrupt shields =
    let sol = base () in
    let p =
      match sol.Checker.panels with p :: _ -> p | [] -> assert false
    in
    {
      sol with
      Checker.sensitive = (fun i j -> i <> j);
      panels =
        [ { p with Checker.nets = [| 0; 1 |]; kth = [| 5.0; 10.0 |]; shields } ];
    }
  in
  let diags = Checker.run (corrupt 0) in
  Alcotest.(check bool) "GSL0028 fires" true
    (List.exists (fun d -> d.Diag.code = 28) diags);
  Alcotest.(check bool) "shield shortfall is an error" true
    (Diag.has_errors
       (List.filter (fun d -> d.Diag.code = 28) diags));
  let ok = Checker.run (corrupt 1) in
  Alcotest.(check bool) "satisfied bound is silent" false
    (List.exists (fun d -> d.Diag.code = 28) ok)

(* Refinement re-solves panels under relaxed bounds, and a panel's
   feasibility is judged against those: the clique bound must be too.
   Nets 0 and 1 are sensitive, net 2 sits between them; under Phase I's
   tight bounds one net cannot stand in for a shield, under the panel's
   relaxed bounds it can. *)
let test_gsl0028_relaxed_panel () =
  let sol = base () in
  let p = match sol.Checker.panels with p :: _ -> p | [] -> assert false in
  let panel kth =
    {
      sol with
      Checker.kth = [| 0.01; 0.01; 0.01 |];
      sensitive = (fun i j -> i + j = 1);
      panels = [ { p with Checker.nets = [| 0; 1; 2 |]; kth; shields = 0 } ];
    }
  in
  let has_28 sol = List.exists (fun d -> d.Diag.code = 28) (Checker.run sol) in
  Alcotest.(check bool) "below the bound under Phase I's kth" true
    (has_28 (panel [| 0.01; 0.01; 0.01 |]));
  Alcotest.(check bool) "at the bound under its own kth" false
    (has_28 (panel [| 5.0; 5.0; 5.0 |]))

let test_gsl0019_deadline () =
  let diags =
    Checker.run { (base ()) with Checker.deadline_phases = [ "route"; "sino" ] }
  in
  let hits = List.filter (fun d -> d.Diag.code = 19) diags in
  Alcotest.(check int) "one GSL0019 finding" 1 (List.length hits);
  Alcotest.(check bool) "names the phases" true
    (match hits with
    | [ d ] ->
        let m = d.Diag.message in
        let has s =
          let ls, lm = (String.length s, String.length m) in
          let rec go i = i + ls <= lm && (String.sub m i ls = s || go (i + 1)) in
          go 0
        in
        has "route" && has "sino"
    | _ -> false);
  Alcotest.(check bool) "deadline is a warning" false (Diag.has_errors diags)

let test_gsl0015_residual_violation () =
  let sol = { (base ()) with Checker.violations = [ (0, 0.3) ] } in
  let diags = Checker.run sol in
  Alcotest.(check bool) "GSL0015 fires" true
    (List.exists (fun d -> d.Diag.code = 15) diags);
  Alcotest.(check bool) "residual violation is a warning" false
    (Diag.has_errors diags)

let test_gsl0016_malformed_netlist () =
  let sol = base () in
  let nets id0 sink0 =
    [|
      Net.make ~id:id0 ~source:(p 0 0) ~sinks:[| sink0 |];
      Net.make ~id:1 ~source:(p 0 1) ~sinks:[| p 1 1 |];
    |]
  in
  fires "net id mismatch" 16
    {
      sol with
      Checker.netlist =
        Netlist.make ~name:"fix" ~grid_w:4 ~grid_h:2 ~gcell_um:100.0
          (nets 5 (p 2 0));
    };
  fires "pin off grid" 16
    {
      sol with
      Checker.netlist =
        Netlist.make ~name:"fix" ~grid_w:4 ~grid_h:2 ~gcell_um:100.0
          (nets 0 (p 9 9));
    };
  fires "grid dims disagree" 16
    {
      sol with
      Checker.netlist =
        Netlist.make ~name:"fix" ~grid_w:5 ~grid_h:2 ~gcell_um:100.0
          (nets 0 (p 2 0));
    }

(* --------------------------- Flow integration ----------------------- *)

let tech = Tech.default

(* The seeded flows must lint clean of Error-severity findings: the flow
   maintains every invariant by construction, so an Error here is a bug
   in either the flow or the checker. *)
let flow_diags =
  lazy
    (let nl =
       Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
         Generator.ibm01
     in
     let grid, base = Flow.prepare tech nl in
     let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
     List.map
       (fun kind ->
         let base = if kind = Flow.Gsino then None else Some base in
         let config = { Flow.Config.default with Flow.Config.kind; seed = 3 } in
         let r = Flow.run ~grid ?base config tech ~sensitivity:sens nl in
         (kind, Flow.check ~tech r))
       [ Flow.Id_no; Flow.Isino; Flow.Gsino ])

let test_flow_lint_error_free () =
  List.iter
    (fun (kind, diags) ->
      Alcotest.(check bool)
        (Flow.kind_name kind ^ " has no Error diagnostics")
        false (Diag.has_errors diags))
    (Lazy.force flow_diags)

let test_flow_lint_known_warnings_only () =
  (* the at-capacity regime legitimately overflows (GSL0005); infeasible
     panels (GSL0014) and residual violations (GSL0015) are expected for
     the unrefined ID+NO baseline only *)
  List.iter
    (fun (kind, diags) ->
      let allowed = if kind = Flow.Id_no then [ 5; 14; 15 ] else [ 5 ] in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s allowed" (Flow.kind_name kind)
               (Diag.to_line d))
            true
            (List.mem d.Diag.code allowed))
        diags)
    (Lazy.force flow_diags)

let suites =
  [
    ( "check.diag",
      [
        Alcotest.test_case "code string" `Quick test_diag_code_string;
        Alcotest.test_case "code range" `Quick test_diag_make_rejects_bad_code;
        Alcotest.test_case "to_line" `Quick test_diag_to_line;
        Alcotest.test_case "one line" `Quick test_diag_one_line;
        Alcotest.test_case "pp" `Quick test_diag_pp;
        Alcotest.test_case "sort" `Quick test_diag_sort;
        Alcotest.test_case "counts" `Quick test_diag_counts;
      ] );
    ( "check.rules",
      [
        Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        Alcotest.test_case "codes unique" `Quick test_rule_codes_unique;
        Alcotest.test_case "GSL0001 off-grid route" `Quick test_gsl0001_off_grid_route;
        Alcotest.test_case "GSL0002 disconnected" `Quick test_gsl0002_disconnected_route;
        Alcotest.test_case "GSL0003 cycle" `Quick test_gsl0003_cyclic_route;
        Alcotest.test_case "GSL0004 route count" `Quick test_gsl0004_route_count;
        Alcotest.test_case "GSL0004 wrong owner" `Quick test_gsl0004_wrong_owner;
        Alcotest.test_case "GSL0005 over capacity" `Quick
          test_gsl0005_over_capacity_is_warning;
        Alcotest.test_case "GSL0006 usage mismatch" `Quick test_gsl0006_usage_mismatch;
        Alcotest.test_case "GSL0007 shield mismatch" `Quick test_gsl0007_shield_mismatch;
        Alcotest.test_case "GSL0008 budget partition" `Quick test_gsl0008_budget_partition;
        Alcotest.test_case "GSL0009 bad kth" `Quick test_gsl0009_bad_kth;
        Alcotest.test_case "GSL0010 sensitivity" `Quick test_gsl0010_sensitivity;
        Alcotest.test_case "GSL0011 lsk table" `Quick test_gsl0011_lsk_table;
        Alcotest.test_case "GSL0012 bad metric" `Quick test_gsl0012_bad_metric;
        Alcotest.test_case "GSL0013 panel coverage" `Quick test_gsl0013_panel_coverage;
        Alcotest.test_case "GSL0014 infeasible panel" `Quick test_gsl0014_infeasible_panel;
        Alcotest.test_case "GSL0015 residual violation" `Quick
          test_gsl0015_residual_violation;
        Alcotest.test_case "GSL0016 malformed netlist" `Quick
          test_gsl0016_malformed_netlist;
        Alcotest.test_case "GSL0018 degraded panel" `Quick
          test_gsl0018_degraded_panel;
        Alcotest.test_case "GSL0019 deadline" `Quick test_gsl0019_deadline;
        Alcotest.test_case "GSL0028 shield lower bound" `Quick
          test_gsl0028_shield_lower_bound;
        Alcotest.test_case "GSL0028 under a panel's relaxed bounds" `Quick
          test_gsl0028_relaxed_panel;
      ] );
    ( "check.flow",
      [
        Alcotest.test_case "seeded flows error-free" `Slow test_flow_lint_error_free;
        Alcotest.test_case "only expected warnings" `Slow
          test_flow_lint_known_warnings_only;
      ] );
  ]
