(* Tests for the pre-route static analyzer (Eda_analyze) and the clique
   shield lower bound (Eda_sino.Bound).

   The load-bearing property is soundness: the bound must never exceed
   the shield count of any feasible layout, and a clean audit must never
   reject an instance a flow can actually solve.  Both are checked
   against the real solver, not against a model of it. *)
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Rng = Eda_util.Rng
module Keff = Eda_sino.Keff
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Solver = Eda_sino.Solver
module Bound = Eda_sino.Bound
module Diag = Eda_check.Diag
module Analyze = Eda_analyze.Analyze
open Gsino

let inst ?(kth = 1.0) ?(sensitive = fun i j -> i <> j) n =
  Instance.make ~nets:(Array.init n Fun.id) ~kth:(Array.make n kth) ~sensitive

let config () = Flow.analyze_config Tech.default

(* ------------------------------ Bound ------------------------------- *)

let test_clique_of_independent_nets () =
  let i = inst ~sensitive:(fun _ _ -> false) 6 in
  Alcotest.(check int) "clique size" 1 (Array.length (Bound.greedy_clique i));
  Alcotest.(check int) "no shields forced" 0 (Bound.shield_lower_bound i)

let test_clique_trivial_instances () =
  Alcotest.(check int) "empty instance" 0
    (Array.length (Bound.greedy_clique (inst 0)));
  Alcotest.(check int) "single net" 1
    (Array.length (Bound.greedy_clique (inst 1)));
  Alcotest.(check int) "empty bound" 0 (Bound.shield_lower_bound (inst 0));
  Alcotest.(check int) "single bound" 0 (Bound.shield_lower_bound (inst 1))

let test_full_clique_bound () =
  (* pure clique, loose bounds: every one of the k-1 gaps needs a shield
     because there are no non-clique nets to fill them *)
  for k = 2 to 8 do
    let i = inst k in
    Alcotest.(check int) "greedy finds the full clique" k
      (Array.length (Bound.greedy_clique i));
    Alcotest.(check int)
      (Printf.sprintf "pure clique of %d forces %d shields" k (k - 1))
      (k - 1) (Bound.shield_lower_bound i)
  done

let test_bound_discounts_fillers () =
  (* clique of 4 among 6 nets, loose bounds: the 2 non-clique nets can
     fill 2 of the 3 gaps (q = 1), leaving 1 forced shield *)
  let sensitive i j = i <> j && i < 4 && j < 4 in
  let i = inst ~sensitive 6 in
  Alcotest.(check int) "one forced shield" 1 (Bound.shield_lower_bound i)

let test_bound_tight_kth_widens_gaps () =
  (* same clique, but bounds so tight a shield-free gap must be wide:
     each non-clique net no longer plugs a gap on its own *)
  let sensitive i j = i <> j && i < 4 && j < 4 in
  let i = inst ~kth:0.01 ~sensitive 6 in
  Alcotest.(check int) "tight bounds force all three gaps" 3
    (Bound.shield_lower_bound i)

let test_one_shield_threshold () =
  let p = Keff.default in
  Alcotest.(check (float 1e-12)) "k1^2 * sb"
    (p.Keff.k1 *. p.Keff.k1 *. p.Keff.shield_block)
    (Bound.one_shield_threshold p)

(* Soundness sweep: on random instances the bound must never exceed the
   shields of a feasible min_area layout — the bound claims to hold for
   EVERY feasible layout, so one counterexample kills it. *)
let test_bound_sound_vs_min_area () =
  let rng = Rng.create 42 in
  let checked = ref 0 in
  for _ = 1 to 120 do
    let n = Rng.int_in rng 2 16 in
    let rate = 0.3 +. Rng.float rng 0.7 in
    let seed = Rng.int rng 100000 in
    let kth = Array.init n (fun _ -> 0.02 +. Rng.float rng 1.2) in
    let i =
      Instance.make ~nets:(Array.init n Fun.id) ~kth
        ~sensitive:(fun a b -> a <> b && Rng.pair_hash ~seed a b < rate)
    in
    let l = Solver.min_area (Rng.split rng) i in
    if Layout.feasible l Keff.default then begin
      incr checked;
      let lb = Bound.shield_lower_bound i in
      Alcotest.(check bool)
        (Printf.sprintf "bound %d <= solver shields %d (n=%d seed=%d)" lb
           (Layout.num_shields l) n seed)
        true
        (lb <= Layout.num_shields l)
    end
  done;
  Alcotest.(check bool) "sweep exercised feasible layouts" true (!checked > 50)

(* ----------------------------- Analyze ------------------------------ *)

let line_netlist ?(name = "line") ~w ~nets () =
  Netlist.make ~name ~grid_w:w ~grid_h:1 ~gcell_um:2000.0
    (Array.init nets (fun id ->
         Net.make ~id
           ~source:{ Point.x = 0; y = 0 }
           ~sinks:[| { Point.x = w - 1; y = 0 } |]))

let infeasible_setup () =
  let netlist = line_netlist ~w:8 ~nets:12 () in
  let grid = Grid.make ~w:8 ~h:1 ~hcap:6 ~vcap:6 in
  let sensitivity = Sensitivity.make ~seed:1 ~rate:1.0 in
  (netlist, grid, sensitivity)

let codes t = List.map (fun d -> d.Diag.code) t.Analyze.findings

let test_cut_overflow_detected () =
  let netlist, grid, sensitivity = infeasible_setup () in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check bool) "GSL0024 fires" true (List.mem 24 (codes t));
  Alcotest.(check int) "every interior cut overflows" 7
    (List.length
       (List.filter
          (fun c -> c.Analyze.forced > c.Analyze.capacity)
          t.Analyze.cuts));
  Alcotest.(check bool) "audit has errors" true (Analyze.has_errors t)

let test_cut_overflow_silent_when_fits () =
  let netlist = line_netlist ~w:8 ~nets:4 () in
  let grid = Grid.make ~w:8 ~h:1 ~hcap:12 ~vcap:12 in
  let sensitivity = Sensitivity.make ~seed:1 ~rate:0.0 in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check (list int)) "no findings" [] (codes t)

let test_unmeetable_kth_detected () =
  (* rate 1.0 on long nets: every net's Kth lands below the one-shield
     floor k1^2*sb, so even the fully-shielded layout provably fails *)
  let netlist, grid, sensitivity = infeasible_setup () in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check bool) "GSL0026 fires" true (List.mem 26 (codes t));
  Alcotest.(check bool) "GSL0025 pressure warning fires" true
    (List.mem 25 (codes t));
  Alcotest.(check bool) "clique covers the panel" true
    (List.for_all
       (fun p -> Array.length p.Analyze.clique = Array.length p.Analyze.nets)
       t.Analyze.panels)

let test_panel_shield_lb_positive () =
  let netlist, grid, sensitivity = infeasible_setup () in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check bool) "panels exist on a 1-row grid" true
    (t.Analyze.panels <> []);
  Alcotest.(check bool) "clique forces shields in every panel" true
    (List.for_all (fun p -> p.Analyze.shield_lb > 0) t.Analyze.panels);
  Alcotest.(check bool) "summary total positive" true
    (Analyze.shield_lb_total t > 0)

let test_demand_map_mass () =
  (* RUDY conserves mass: summed H demand = summed horizontal spans *)
  let netlist = line_netlist ~w:8 ~nets:5 () in
  let grid = Grid.make ~w:8 ~h:1 ~hcap:12 ~vcap:12 in
  let sensitivity = Sensitivity.make ~seed:1 ~rate:0.0 in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  let total = Array.fold_left ( +. ) 0.0 (Analyze.demand t Dir.H) in
  (* 5 nets x 8 columns of bounding box each *)
  Alcotest.(check (float 1e-9)) "H demand mass" 40.0 total;
  Alcotest.(check (float 1e-9)) "no V demand for flat nets" 0.0
    (Array.fold_left ( +. ) 0.0 (Analyze.demand t Dir.V));
  Alcotest.(check (float 1e-6)) "peak pct = demand / cap" (5.0 /. 12.0 *. 100.0)
    (Analyze.peak_demand_pct t)

let test_graph_structure () =
  let netlist, grid, sensitivity = infeasible_setup () in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  let g = t.Analyze.graph in
  Alcotest.(check int) "nodes" 12 g.Analyze.nodes;
  Alcotest.(check int) "complete graph edges" 66 g.Analyze.edges;
  Alcotest.(check int) "one component" 1 g.Analyze.components;
  Alcotest.(check int) "max degree" 11 g.Analyze.max_degree;
  Alcotest.(check int) "greedy clique finds all" 12 g.Analyze.max_clique;
  Alcotest.(check int) "degree histogram" 12 g.Analyze.degree_hist.(11)

let test_empty_netlist () =
  let netlist =
    Netlist.make ~name:"empty" ~grid_w:4 ~grid_h:4 ~gcell_um:100.0 [||]
  in
  let grid = Grid.make ~w:4 ~h:4 ~hcap:4 ~vcap:4 in
  let sensitivity = Sensitivity.make ~seed:1 ~rate:0.5 in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check (list int)) "no findings" [] (codes t);
  Alcotest.(check (float 1e-9)) "no demand" 0.0 (Analyze.peak_demand_pct t)

let test_generated_circuit_clean () =
  (* the audit must not cry wolf on the instances the seeded flows route *)
  let tech = Tech.default in
  let netlist =
    Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02
      ~seed:7 Eda_netlist.Generator.ibm01
  in
  let grid = Tech.grid_for tech netlist in
  let sensitivity = Sensitivity.make ~seed:(7 lxor 0xbeef) ~rate:0.30 in
  let t = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check bool) "no provable infeasibility" false (Analyze.has_errors t)

let test_audit_deterministic () =
  let netlist, grid, sensitivity = infeasible_setup () in
  let t1 = Analyze.run (config ()) ~grid ~sensitivity netlist in
  let t2 = Analyze.run (config ()) ~grid ~sensitivity netlist in
  Alcotest.(check (list string)) "identical findings"
    (List.map Diag.to_line t1.Analyze.findings)
    (List.map Diag.to_line t2.Analyze.findings)

(* --------------------------- Flow pre-pass -------------------------- *)

let test_flow_audit_degrade_continues () =
  let netlist, grid, sensitivity = infeasible_setup () in
  let cfg = { Flow.Config.default with Flow.Config.audit = true } in
  let r = Flow.run ~grid cfg Tech.default ~sensitivity netlist in
  Alcotest.(check int) "all nets still routed" 12 (Array.length r.Flow.routes)

let test_flow_audit_clean_instance_unaffected () =
  (* audit on a healthy instance must not change the result *)
  let tech = Tech.default in
  let netlist =
    Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02
      ~seed:7 Eda_netlist.Generator.ibm01
  in
  let sensitivity = Sensitivity.make ~seed:(7 lxor 0xbeef) ~rate:0.30 in
  let base_cfg = Flow.Config.default in
  let grid, base = Flow.prepare ~config:base_cfg tech netlist in
  let run cfg = Flow.run ~grid ~base cfg tech ~sensitivity netlist in
  let plain = run base_cfg in
  let audited = run { base_cfg with Flow.Config.audit = true } in
  Alcotest.(check int) "same shields" plain.Flow.shields audited.Flow.shields;
  Alcotest.(check (float 1e-9)) "same wirelength" plain.Flow.total_wl_um
    audited.Flow.total_wl_um

let suites =
  [
    ( "analyze.bound",
      [
        Alcotest.test_case "independent nets" `Quick
          test_clique_of_independent_nets;
        Alcotest.test_case "trivial instances" `Quick
          test_clique_trivial_instances;
        Alcotest.test_case "full clique k-1" `Quick test_full_clique_bound;
        Alcotest.test_case "fillers discount" `Quick test_bound_discounts_fillers;
        Alcotest.test_case "tight kth widens gaps" `Quick
          test_bound_tight_kth_widens_gaps;
        Alcotest.test_case "one-shield threshold" `Quick
          test_one_shield_threshold;
        Alcotest.test_case "sound vs min_area sweep" `Slow
          test_bound_sound_vs_min_area;
      ] );
    ( "analyze.audit",
      [
        Alcotest.test_case "cut overflow" `Quick test_cut_overflow_detected;
        Alcotest.test_case "fits silently" `Quick
          test_cut_overflow_silent_when_fits;
        Alcotest.test_case "unmeetable kth" `Quick test_unmeetable_kth_detected;
        Alcotest.test_case "panel shield lb" `Quick test_panel_shield_lb_positive;
        Alcotest.test_case "demand map mass" `Quick test_demand_map_mass;
        Alcotest.test_case "graph structure" `Quick test_graph_structure;
        Alcotest.test_case "empty netlist" `Quick test_empty_netlist;
        Alcotest.test_case "generated circuit clean" `Slow
          test_generated_circuit_clean;
        Alcotest.test_case "deterministic" `Quick test_audit_deterministic;
      ] );
    ( "analyze.flow",
      [
        Alcotest.test_case "degrade continues" `Quick
          test_flow_audit_degrade_continues;
        Alcotest.test_case "clean instance unaffected" `Slow
          test_flow_audit_clean_instance_unaffected;
      ] );
  ]
