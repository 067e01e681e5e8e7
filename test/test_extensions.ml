(* Tests for the extensions beyond the paper's core: the negotiated-
   congestion router, route-aware budgeting, netlist serialization, the
   congestion map, and the delay measurements backing the SINO-delay
   claim. *)
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Io = Eda_netlist.Io
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Coupled_line = Eda_circuit.Coupled_line
module Table_builder = Eda_lsk.Table_builder
open Gsino

let p = Point.make
let tech = Tech.default

(* Formula (2)'s constants, as Flow passes them to the ID router *)
let weights =
  {
    Id_router.alpha = tech.Tech.alpha;
    beta = tech.Tech.beta;
    gamma = tech.Tech.gamma;
  }

let tiny =
  lazy
    (Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
       Generator.ibm01)

(* ------------------- negotiated-congestion router ------------------ *)

let test_nc_routes_connect () =
  let nl = Lazy.force tiny in
  let grid = Tech.grid_for tech nl in
  let routes = Nc_router.route ~grid ~netlist:nl () in
  Alcotest.(check int) "route per net" (Netlist.num_nets nl) (Array.length routes);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "net %d connected" i) true
        (Route.connects grid r (Net.pins nl.Netlist.nets.(i))))
    routes

let test_nc_deterministic () =
  let nl = Lazy.force tiny in
  let grid = Tech.grid_for tech nl in
  let r1 = Nc_router.route ~grid ~netlist:nl () in
  let r2 = Nc_router.route ~grid ~netlist:nl () in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "same edges" true (Route.edges r = Route.edges r2.(i)))
    r1

let test_nc_resolves_congestion () =
  (* 8 identical crossings, capacity 3 per region: negotiation must use
     at least two rows *)
  let g = Grid.make ~w:2 ~h:4 ~hcap:3 ~vcap:8 in
  let nets =
    Array.init 8 (fun id -> Net.make ~id ~source:(p 0 1) ~sinks:[| p 1 1 |])
  in
  let nl = Netlist.make ~name:"chan" ~grid_w:2 ~grid_h:4 ~gcell_um:50.0 nets in
  let routes = Nc_router.route ~grid:g ~netlist:nl () in
  let u = Usage.of_routes g ~gcell_um:50.0 (Array.to_list routes) in
  Alcotest.(check int) "no overflow left" 0 (Usage.total_overflow u)

let test_nc_short_when_uncongested () =
  (* a lone 2-pin net takes a shortest (Manhattan) route *)
  let g = Grid.make ~w:8 ~h:8 ~hcap:10 ~vcap:10 in
  let nets = [| Net.make ~id:0 ~source:(p 1 1) ~sinks:[| p 5 4 |] |] in
  let nl = Netlist.make ~name:"one" ~grid_w:8 ~grid_h:8 ~gcell_um:50.0 nets in
  let routes = Nc_router.route ~grid:g ~netlist:nl () in
  Alcotest.(check int) "manhattan length" 7 (Route.num_edges routes.(0))

let test_nc_in_flow () =
  let nl = Lazy.force tiny in
  let config kind =
    { Flow.Config.default with
      Flow.Config.kind;
      router = Flow.Negotiated;
      seed = 3;
    }
  in
  let grid, base = Flow.prepare ~config:(config Flow.Gsino) tech nl in
  let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
  let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity:sens nl in
  let idno = Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity:sens nl in
  Alcotest.(check int) "gsino violation-free with nc router" 0
    (Flow.violation_count gsino);
  Alcotest.(check bool) "idno has violations" true (Flow.violation_count idno > 0)

(* ----------------------- route-aware budgeting --------------------- *)

let test_route_aware_tightens_detours () =
  let g = Grid.make ~w:8 ~h:8 ~hcap:10 ~vcap:10 in
  let nets = [| Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 3 0 |] |] in
  let nl = Netlist.make ~name:"d" ~grid_w:8 ~grid_h:8 ~gcell_um:100.0 nets in
  (* a detoured route: down, across, up = 5 edges instead of 3 *)
  let detour =
    Route.of_edges g ~net:0
      [
        Grid.edge_id g (p 0 0) Dir.V;
        Grid.edge_id g (p 0 1) Dir.H;
        Grid.edge_id g (p 1 1) Dir.H;
        Grid.edge_id g (p 2 1) Dir.H;
        Grid.edge_id g (p 3 0) Dir.V;
      ]
  in
  let lsk = Tech.lsk_model tech in
  let uniform = Budget.uniform ~lsk ~noise_v:0.15 ~gcell_um:100.0 nl in
  let aware =
    Budget.route_aware ~lsk ~noise_v:0.15 ~gcell_um:100.0 ~grid:g
      ~routes:[| detour |] nl
  in
  Alcotest.(check (float 1e-9)) "uniform uses manhattan (3)"
    (uniform.Budget.lsk_budget /. 300.0)
    (Budget.kth uniform 0);
  Alcotest.(check (float 1e-9)) "route-aware uses path (5)"
    (aware.Budget.lsk_budget /. 500.0)
    (Budget.kth aware 0);
  Alcotest.(check bool) "detour tightens" true
    (Budget.kth aware 0 < Budget.kth uniform 0)

let test_route_aware_flow_zero_pass1 () =
  (* with bounds from realized lengths, Phase III pass 1 has little or
     nothing to repair *)
  let nl = Lazy.force tiny in
  let grid, base = Flow.prepare tech nl in
  let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
  let gsino =
    Flow.run ~grid ~base
      { Flow.Config.default with
        Flow.Config.kind = Flow.Gsino;
        budgeting = Flow.Route_aware;
        seed = 3;
      }
      tech ~sensitivity:sens nl
  in
  Alcotest.(check int) "violation-free" 0 (Flow.violation_count gsino);
  match gsino.Flow.refine_stats with
  | None -> Alcotest.fail "stats expected"
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "pass1 fixes %d <= 2" s.Refine.pass1_nets_fixed)
        true
        (s.Refine.pass1_nets_fixed <= 2)

(* --------------------------- netlist IO ---------------------------- *)

let test_io_roundtrip () =
  let nl = Lazy.force tiny in
  let nl' = Io.of_string (Io.to_string nl) in
  Alcotest.(check string) "name" nl.Netlist.name nl'.Netlist.name;
  Alcotest.(check int) "grid w" nl.Netlist.grid_w nl'.Netlist.grid_w;
  Alcotest.(check int) "grid h" nl.Netlist.grid_h nl'.Netlist.grid_h;
  Alcotest.(check (float 1e-9)) "gcell" nl.Netlist.gcell_um nl'.Netlist.gcell_um;
  Alcotest.(check int) "net count" (Netlist.num_nets nl) (Netlist.num_nets nl');
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) "same pins" true
        (Net.pins n = Net.pins nl'.Netlist.nets.(i)))
    nl.Netlist.nets

let test_io_file_roundtrip () =
  let nl = Lazy.force tiny in
  let path = Filename.temp_file "gsino" ".netlist" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path nl;
      let nl' = Io.load path in
      Alcotest.(check int) "net count" (Netlist.num_nets nl) (Netlist.num_nets nl'))

let test_io_rejects_garbage () =
  let bad input =
    try
      ignore (Io.of_string input);
      false
    with
    | Eda_guard.Error.Error (Eda_guard.Error.Parse _) -> true
    | Failure _ | Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing magic" true (bad "name x\ngrid 2 2 10\n");
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "bad grid" true
    (bad "gsino-netlist v1\nname x\ngrid two 2 10\nnet 0 0 0 1 1\n");
  Alcotest.(check bool) "odd sink coords" true
    (bad "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 0 0 0 1\n");
  Alcotest.(check bool) "off-grid pin" true
    (bad "gsino-netlist v1\nname x\ngrid 2 2 10\nnet 0 0 0 9 9\n");
  Alcotest.(check bool) "unknown record" true
    (bad "gsino-netlist v1\nname x\ngrid 2 2 10\nwat 1 2 3\n")

let test_io_comments_and_blanks () =
  let nl =
    Io.of_string
      "gsino-netlist v1\n# a comment\n\nname demo\ngrid 4 4 25\n\nnet 0 0 0 3 3\n"
  in
  Alcotest.(check string) "name" "demo" nl.Netlist.name;
  Alcotest.(check int) "one net" 1 (Netlist.num_nets nl)

(* -------------------------- congestion map ------------------------- *)

let test_congestion_map_glyphs () =
  let g = Grid.make ~w:3 ~h:2 ~hcap:4 ~vcap:4 in
  let u = Usage.create g ~gcell_um:50.0 in
  Usage.set_shields u (Grid.region_id g (p 0 0)) Dir.H 2;
  Usage.set_shields u (Grid.region_id g (p 1 0)) Dir.H 6;
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Congestion_map.render fmt u;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "overflow glyph present" true (String.contains out '!');
  Alcotest.(check bool) "mid-range glyph present" true (String.contains out '=');
  (* 2 directions x (header + 2 rows) *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "line count" 6 (List.length lines)

(* ------------------------- delay measurements ---------------------- *)

let drive () =
  let e = Table_builder.default_electrical in
  {
    Coupled_line.rd = e.Table_builder.rd;
    cl = e.Table_builder.cl;
    vdd = e.Table_builder.vdd;
    t_delay = e.Table_builder.t_delay;
    t_rise = e.Table_builder.t_rise;
  }

let spec () =
  Table_builder.spec_of Table_builder.default_electrical
    ~keff:Eda_sino.Keff.default ~length_m:1e-3

let delay roles =
  match Coupled_line.rise_delay (spec ()) (drive ()) roles ~wire:1 with
  | Some d -> d
  | None -> Alcotest.fail "wire never reached 50% Vdd"

let test_crossing_time () =
  let c = Eda_circuit.Mna.create () in
  let a = Eda_circuit.Mna.node c and b = Eda_circuit.Mna.node c in
  ignore
    (Eda_circuit.Mna.vsource c a Eda_circuit.Mna.ground
       (Eda_circuit.Waveform.Ramp { v0 = 0.; v1 = 1.; t_delay = 0.; t_rise = 1e-12 }));
  Eda_circuit.Mna.resistor c a b 1000.0;
  Eda_circuit.Mna.capacitor c b Eda_circuit.Mna.ground 1e-12;
  let r = Eda_circuit.Transient.run c ~dt:2e-12 ~t_end:5e-9 ~probes:[ b ] in
  (* RC 50% crossing at tau ln 2 *)
  (match Eda_circuit.Transient.crossing_time r 0 ~level:0.5 with
  | None -> Alcotest.fail "no crossing"
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "t=%.3gns ~ tau ln2" (t *. 1e9))
        true
        (Float.abs (t -. (1e-9 *. log 2.)) < 2e-11));
  Alcotest.(check bool) "never reaches 2.0" true
    (Eda_circuit.Transient.crossing_time r 0 ~level:2.0 = None)

let test_opposing_neighbours_slow_the_wire () =
  let open Coupled_line in
  let d_opp = delay [| Opposing; Aggressor; Opposing |] in
  let d_shield = delay [| Shield; Aggressor; Shield |] in
  let d_same = delay [| Aggressor; Aggressor; Aggressor |] in
  (* the [12] claim: a shielded (SINO) wire is faster than one whose
     neighbours switch opposingly, because no neighbour switches against it *)
  Alcotest.(check bool) "shielded faster than opposing" true (d_shield < d_opp);
  Alcotest.(check bool) "same-direction fastest" true (d_same <= d_shield +. 1e-15)

let test_opposing_symmetric_noise () =
  let open Coupled_line in
  (* a falling aggressor injects the mirror image of a rising one: the
     victim's |peak| must match to a few percent (linear network) *)
  let v_rise =
    worst_victim_noise (spec ()) (drive ()) [| Aggressor; Victim; Quiet |]
  in
  let v_fall =
    worst_victim_noise (spec ()) (drive ()) [| Opposing; Victim; Quiet |]
  in
  Alcotest.(check bool)
    (Printf.sprintf "|noise| symmetric (%.4f vs %.4f)" v_rise v_fall)
    true
    (Float.abs (v_rise -. v_fall) < 0.02 *. v_rise)

let test_differential_rejects_common_mode () =
  let open Coupled_line in
  (* the differential receiver's noise is far below the single-ended one *)
  let v_single =
    worst_victim_noise (spec ()) (drive ()) [| Aggressor; Victim; Quiet |]
  in
  let v_diff =
    differential_noise (spec ()) (drive ())
      [| Aggressor; Victim; Victim |] ~plus:1 ~minus:2
  in
  Alcotest.(check bool)
    (Printf.sprintf "differential %.4f < single-ended %.4f" v_diff v_single)
    true (v_diff < v_single);
  Alcotest.check_raises "plus must be a victim"
    (Invalid_argument
       "Coupled_line.differential_noise: plus/minus must be distinct victims")
    (fun () ->
      ignore
        (differential_noise (spec ()) (drive ())
           [| Aggressor; Victim; Victim |] ~plus:0 ~minus:1))

let test_combined_variants () =
  (* negotiated router + route-aware budgeting together still deliver the
     paper's guarantee *)
  let nl = Lazy.force tiny in
  let config kind =
    { Flow.Config.default with
      Flow.Config.kind;
      router = Flow.Negotiated;
      budgeting = Flow.Route_aware;
      seed = 3;
    }
  in
  let grid, base = Flow.prepare ~config:(config Flow.Gsino) tech nl in
  let sens = Sensitivity.make ~seed:11 ~rate:0.50 in
  let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity:sens nl in
  let isino = Flow.run ~grid ~base (config Flow.Isino) tech ~sensitivity:sens nl in
  Alcotest.(check int) "gsino clean" 0 (Flow.violation_count gsino);
  Alcotest.(check int) "isino clean" 0 (Flow.violation_count isino)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"both routers connect random netlists" ~count:12
      (pair (int_range 1 10_000) (int_range 10 60))
      (fun (seed, n_nets) ->
        let nl =
          Generator.uniform ~name:"q" ~grid_w:7 ~grid_h:6 ~n_nets
            ~mean_span:2.5 ~seed
        in
        let grid = Grid.make ~w:7 ~h:6 ~hcap:8 ~vcap:8 in
        let ok routes =
          Array.for_all
            (fun r ->
              Route.connects grid r
                (Net.pins nl.Netlist.nets.(Route.net r))
              && Route.is_tree grid r)
            routes
        in
        ok (Nc_router.route ~grid ~netlist:nl ())
        && ok (Id_router.route ~grid ~netlist:nl ~weights ()));
    Test.make ~name:"io roundtrip on random netlists" ~count:20
      (int_range 1 10_000)
      (fun seed ->
        let nl =
          Generator.uniform ~name:"rt" ~grid_w:9 ~grid_h:9 ~n_nets:25
            ~mean_span:3.0 ~seed
        in
        let nl' = Io.of_string (Io.to_string nl) in
        Array.for_all2
          (fun a b -> Net.pins a = Net.pins b)
          nl.Netlist.nets nl'.Netlist.nets);
  ]

let suites =
  [
    ( "ext.nc_router",
      [
        Alcotest.test_case "routes connect" `Slow test_nc_routes_connect;
        Alcotest.test_case "deterministic" `Slow test_nc_deterministic;
        Alcotest.test_case "resolves congestion" `Quick test_nc_resolves_congestion;
        Alcotest.test_case "short when uncongested" `Quick test_nc_short_when_uncongested;
        Alcotest.test_case "works in flow" `Slow test_nc_in_flow;
      ] );
    ( "ext.budgeting",
      [
        Alcotest.test_case "route-aware tightens detours" `Quick
          test_route_aware_tightens_detours;
        Alcotest.test_case "route-aware leaves pass1 idle" `Slow
          test_route_aware_flow_zero_pass1;
      ] );
    ( "ext.io",
      [
        Alcotest.test_case "string roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
        Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
      ] );
    ( "ext.combined",
      [ Alcotest.test_case "nc + route-aware flows" `Slow test_combined_variants ] );
    ("ext.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "ext.congestion_map",
      [ Alcotest.test_case "glyphs" `Quick test_congestion_map_glyphs ] );
    ( "ext.delay",
      [
        Alcotest.test_case "crossing time" `Quick test_crossing_time;
        Alcotest.test_case "opposing neighbours slow the wire" `Slow
          test_opposing_neighbours_slow_the_wire;
        Alcotest.test_case "opposing noise symmetric" `Slow test_opposing_symmetric_noise;
        Alcotest.test_case "differential rejects common mode" `Slow
          test_differential_rejects_common_mode;
      ] );
  ]
