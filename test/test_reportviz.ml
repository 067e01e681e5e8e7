(* Tests for Eda_reportviz: SVG escaping, heatmap geometry, chart rows,
   and the HTML/text run reports over a tiny seeded flow. *)
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Metrics = Eda_obs.Metrics
module Svg = Eda_reportviz.Svg
module Heatmap = Eda_reportviz.Heatmap
module Chart = Eda_reportviz.Chart
module Run_report = Eda_reportviz.Run_report
open Gsino

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go acc i =
    if n = 0 || i + n > m then acc
    else go (if String.sub s i n = sub then acc + 1 else acc) (i + 1)
  in
  go 0 0

let tech = Tech.default

(* shared tiny seeded GSINO flow, recorded in a registry of its own so
   the snapshot the reports consume belongs to this run alone *)
let fixture =
  lazy
    (Metrics.record @@ fun () ->
     let nl =
       Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
         Generator.ibm01
     in
     let grid, _base = Flow.prepare tech nl in
     let sensitivity = Sensitivity.make ~seed:11 ~rate:0.30 in
     Flow.run ~grid
       { Flow.Config.default with Flow.Config.kind = Flow.Gsino; seed = 7 }
       tech ~sensitivity nl)

(* ------------------------------ Svg --------------------------------- *)

let test_svg_escape () =
  Alcotest.(check string)
    "specials" "&amp;&lt;&gt;&quot;&#39;" (Svg.escape "&<>\"'");
  Alcotest.(check string) "plain untouched" "abc 123" (Svg.escape "abc 123")

let test_svg_builders () =
  let r =
    Svg.rect ~x:1.0 ~y:2.0 ~w:3.0 ~h:4.0
      ~attrs:[ ("fill", "#fff") ]
      ~tooltip:"a<b" ()
  in
  Alcotest.(check bool) "tooltip escaped" true
    (contains ~sub:"<title>a&lt;b</title>" r);
  Alcotest.(check bool) "attrs rendered" true (contains ~sub:"fill=\"#fff\"" r);
  let s = Svg.svg ~w:10 ~h:20 [ "<g/>" ] in
  Alcotest.(check bool) "namespace" true
    (contains ~sub:"xmlns=\"http://www.w3.org/2000/svg\"" s);
  Alcotest.(check bool) "viewBox" true (contains ~sub:"viewBox=\"0 0 10 20\"" s)

(* ----------------------------- Heatmap ------------------------------ *)

let test_heatmap_cell_count () =
  let r, _ = Lazy.force fixture in
  let grid = r.Flow.grid in
  let svg = Heatmap.render ~mode:Heatmap.Utilization r.Flow.usage Dir.H in
  let cells = Grid.width grid * Grid.height grid in
  (* one rect per region plus the handful of legend swatches *)
  let rects = count_sub ~sub:"<rect" svg in
  Alcotest.(check bool)
    (Printf.sprintf "%d rects for %d cells" rects cells)
    true
    (rects >= cells && rects <= cells + 12);
  Alcotest.(check bool) "tooltips present" true
    (count_sub ~sub:"<title>" svg >= cells)

let test_heatmap_over_capacity_marked () =
  let r, _ = Lazy.force fixture in
  let over_somewhere =
    List.exists
      (fun d ->
        List.exists Congestion_map.over_capacity
          (Congestion_map.cells r.Flow.usage d))
      Dir.all
  in
  (* capacities are clamped to the demand quantile, so the tiny fixture
     always has hot regions; guard the assumption explicitly *)
  Alcotest.(check bool) "fixture has over-capacity regions" true over_somewhere;
  let svgs =
    List.map
      (fun d -> Heatmap.render ~mode:Heatmap.Utilization r.Flow.usage d)
      Dir.all
  in
  Alcotest.(check bool) "status red + spelled-out tooltip" true
    (List.exists (fun s -> contains ~sub:"OVER CAPACITY" s) svgs);
  Alcotest.(check bool) "legend explains the red" true
    (List.for_all (fun s -> contains ~sub:"over capacity" s) svgs)

let test_heatmap_shields_mode () =
  let r, _ = Lazy.force fixture in
  let svg = Heatmap.render ~mode:Heatmap.Shields r.Flow.usage Dir.H in
  Alcotest.(check bool) "legend in shield units" true
    (contains ~sub:"shields" svg);
  (* shields mode never uses the reserved status red as a ramp color *)
  Alcotest.(check bool) "no status red" false (contains ~sub:"#e34948" svg)

(* ------------------------------ Chart ------------------------------- *)

let test_chart_bars () =
  let svg = Chart.bars [ ("alpha", 10.0); ("beta", 5.0) ] in
  Alcotest.(check bool) "labels present" true (contains ~sub:"alpha" svg);
  Alcotest.(check int) "two bars two labels two values" 2
    (count_sub ~sub:"<rect" svg);
  let empty = Chart.bars [] in
  Alcotest.(check bool) "empty input renders" true (contains ~sub:"<svg" empty)

let test_chart_linear_bins () =
  let rows = Chart.linear_bins ~bins:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "bin count" 4 (List.length rows);
  Alcotest.(check (float 1e-9)) "all samples binned" 5.0
    (List.fold_left (fun acc (_, c) -> acc +. c) 0.0 rows);
  Alcotest.(check int) "empty input" 0 (List.length (Chart.linear_bins [||]))

(* ---------------------------- Run_report ---------------------------- *)

let test_html_report_sections () =
  let r, snapshot = Lazy.force fixture in
  let html = Run_report.html ~tech ~title:"t" ~snapshot r in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
        (contains ~sub html))
    [
      "<!DOCTYPE html>";
      "<svg";
      "color-scheme: light";
      "Phase timings";
      "Noise margin audit";
      "Crosstalk budget";
      "Metrics appendix";
      "flow.phase_seconds";
    ]

let test_html_report_top_offenders_gated () =
  let module Journal = Eda_obs.Journal in
  let r, snapshot = Lazy.force fixture in
  (* without a journal the section must be absent entirely *)
  Journal.disable ();
  let html = Run_report.html ~tech ~snapshot r in
  Alcotest.(check bool) "absent when not journaling" false
    (contains ~sub:"Top offenders" html);
  Journal.enable ();
  Fun.protect ~finally:Journal.disable @@ fun () ->
  Journal.record "net.route" [ ("net", "42") ]
    ~data:[ ("pops", 7.0); ("reweights", 3.0); ("deletions", 1.0) ]
    ~outcome:"routed";
  Journal.record "panel.solve"
    [ ("region", "5"); ("dir", "H"); ("sig", "00aa"); ("members", "42") ]
    ~data:[ ("time_us", 120.0); ("nets", 1.0); ("shields", 2.0) ]
    ~outcome:"feasible";
  let html = Run_report.html ~tech ~snapshot r in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
        (contains ~sub html))
    [
      "Top offenders";
      "Nets by route churn";
      "Panels by SINO time";
      ">42<";
      ">5/H<";
    ]

let test_html_report_self_contained () =
  let r, snapshot = Lazy.force fixture in
  let html = Run_report.html ~tech ~snapshot r in
  (* no external fetches: no script/link/img tags, no src= attributes;
     the only URL is the SVG xmlns namespace identifier *)
  Alcotest.(check bool) "no <script" false (contains ~sub:"<script" html);
  Alcotest.(check bool) "no <link" false (contains ~sub:"<link" html);
  Alcotest.(check bool) "no <img" false (contains ~sub:"<img" html);
  Alcotest.(check bool) "no src=" false (contains ~sub:"src=" html);
  Alcotest.(check int) "only xmlns urls"
    (count_sub ~sub:"http" html)
    (count_sub ~sub:"xmlns=\"http://www.w3.org/2000/svg\"" html)

let test_html_report_heatmaps_per_dir () =
  let r, snapshot = Lazy.force fixture in
  let html = Run_report.html ~tech ~snapshot r in
  (* utilization + shields per direction *)
  Alcotest.(check int) "four heatmaps + charts" 4
    (count_sub ~sub:"<figure><figcaption>Track utilization" html
    + count_sub ~sub:"<figure><figcaption>Shield tracks" html)

(* The predicted-congestion figure needs the RUDY map only: rendering
   runs no audit (analyze.runs stays put), and the figure is the one a
   full audit's demand would draw. *)
let test_html_report_runs_no_audit () =
  let module Analyze = Eda_analyze.Analyze in
  let r, snapshot = Lazy.force fixture in
  let html, runs =
    Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
    let html = Run_report.html ~tech ~snapshot r in
    (html, Metrics.counter_total (Metrics.snapshot ()) "analyze.runs")
  in
  Alcotest.(check int) "no analyze.runs" 0 runs;
  let audit =
    Analyze.run (Flow.analyze_config tech) ~grid:r.Flow.grid
      ~sensitivity:r.Flow.sensitivity r.Flow.netlist
  in
  List.iter
    (fun dir ->
      let demand = Analyze.demand audit dir in
      Alcotest.(check bool)
        (Dir.to_string dir ^ " demand_map = the audit's demand")
        true
        (Analyze.demand_map r.Flow.grid r.Flow.netlist dir = demand);
      Alcotest.(check bool)
        (Dir.to_string dir ^ " figure drawn from it")
        true
        (contains ~sub:(Heatmap.render_predicted r.Flow.grid demand dir) html))
    Dir.all

let test_text_report () =
  let r, snapshot = Lazy.force fixture in
  let txt = Run_report.text ~tech ~snapshot r in
  Alcotest.(check bool) "summary line" true (contains ~sub:"GSINO on" txt);
  Alcotest.(check bool) "congestion map" true (contains ~sub:"H tracks" txt);
  Alcotest.(check bool) "noise audit" true
    (contains ~sub:"Noise margin audit" txt);
  Alcotest.(check bool) "metrics" true (contains ~sub:"Per-phase metrics" txt);
  Alcotest.(check bool) "no html leaked" false (contains ~sub:"<svg" txt)

let test_write_html () =
  let r, snapshot = Lazy.force fixture in
  let path = Filename.temp_file "gsino_report" ".html" in
  Run_report.write_html ~tech ~snapshot path r;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (n > 1000)

let suites =
  [
    ( "reportviz",
      [
        Alcotest.test_case "svg escape" `Quick test_svg_escape;
        Alcotest.test_case "svg builders" `Quick test_svg_builders;
        Alcotest.test_case "heatmap cells" `Quick test_heatmap_cell_count;
        Alcotest.test_case "heatmap over-capacity" `Quick
          test_heatmap_over_capacity_marked;
        Alcotest.test_case "heatmap shields" `Quick test_heatmap_shields_mode;
        Alcotest.test_case "chart bars" `Quick test_chart_bars;
        Alcotest.test_case "chart linear bins" `Quick test_chart_linear_bins;
        Alcotest.test_case "html sections" `Quick test_html_report_sections;
        Alcotest.test_case "top offenders journal-gated" `Quick
          test_html_report_top_offenders_gated;
        Alcotest.test_case "html self-contained" `Quick
          test_html_report_self_contained;
        Alcotest.test_case "html heatmaps per dir" `Quick
          test_html_report_heatmaps_per_dir;
        Alcotest.test_case "html runs no audit" `Quick
          test_html_report_runs_no_audit;
        Alcotest.test_case "text report" `Quick test_text_report;
        Alcotest.test_case "write_html" `Quick test_write_html;
      ] );
  ]
