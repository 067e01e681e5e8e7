module Flow = Gsino.Flow
module Tech = Gsino.Tech
module Budget = Gsino.Budget
module Noise = Gsino.Noise
module Cmap = Gsino.Congestion_map
module Report = Gsino.Report
module Metrics = Eda_obs.Metrics
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Netlist = Eda_netlist.Netlist

let esc = Svg.escape

(* Light-only surface (#fcfcfb), recessive borders, reserved status
   colors for the violation badges.  Everything inline: the report must
   open as a single file with no external assets. *)
let css =
  {|:root { color-scheme: light; }
body { background: #fcfcfb; color: #1c1917; font-family: system-ui, -apple-system, "Segoe UI", sans-serif; margin: 2rem auto; max-width: 980px; padding: 0 1rem; line-height: 1.45; }
h1 { font-size: 1.4rem; margin-bottom: .2rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #e7e5e4; padding-bottom: .3rem; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
p.sub { color: #57534e; margin-top: 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 1rem 0; }
.tile { border: 1px solid #e7e5e4; border-radius: 8px; padding: 10px 16px; background: #ffffff; min-width: 110px; }
.tile .v { font-size: 1.25rem; font-weight: 600; }
.tile .k { font-size: .72rem; color: #57534e; text-transform: uppercase; letter-spacing: .04em; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border-bottom: 1px solid #e7e5e4; padding: 6px 12px; text-align: right; }
th { color: #57534e; font-weight: 600; }
td.l, th.l { text-align: left; }
.bad { color: #7f1d1d; background: #fdecec; border-radius: 4px; padding: 2px 6px; font-weight: 600; }
.ok { color: #14532d; background: #e9f6ee; border-radius: 4px; padding: 2px 6px; }
pre { background: #f5f5f4; border: 1px solid #e7e5e4; border-radius: 8px; padding: 12px; overflow-x: auto; font-size: .8rem; }
figure { margin: 1rem 0; }
figcaption { font-size: .8rem; color: #57534e; margin-bottom: .4rem; }
details { margin: .5rem 0; }
summary { cursor: pointer; color: #57534e; font-size: .9rem; }
|}

let render_labels = function
  | [] -> ""
  | l ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let gauge_of snap ?labels name =
  match Metrics.find snap ?labels name with
  | Some (Metrics.Gauge g) -> g
  | Some (Metrics.Counter _) | Some (Metrics.Histogram _) | None -> 0.0

let audit_of ~tech (r : Flow.result) =
  Noise.audit ~grid:r.Flow.grid ~gcell_um:r.Flow.netlist.Netlist.gcell_um
    ~phase2:r.Flow.phase2
    ~lsk_model:(Tech.lsk_model tech)
    ~netlist:r.Flow.netlist ~routes:r.Flow.routes
    ~bound_v:tech.Tech.noise_bound_v ()

let phase_rows (r : Flow.result) =
  [
    ("route", r.Flow.route_s);
    ("sino", r.Flow.sino_s);
    ("refine", r.Flow.refine_s);
  ]

let html ?(tech = Tech.default) ?(title = "GSINO run report") ~snapshot
    (r : Flow.result) =
  let b = Buffer.create 16384 in
  let add = Buffer.add_string b in
  let addf fmt = Printf.ksprintf add fmt in
  let tile k v =
    addf "<div class=\"tile\"><div class=\"v\">%s</div><div class=\"k\">%s</div></div>\n"
      (esc v) (esc k)
  in
  add "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n";
  addf "<title>%s</title>\n" (esc title);
  add "<style>";
  add css;
  add "</style>\n</head>\n<body>\n";
  addf "<h1>%s</h1>\n" (esc title);
  addf "<p class=\"sub\">%s flow on <strong>%s</strong> &mdash; %d nets, %d&times;%d regions, gcell %.0f µm</p>\n"
    (esc (Flow.kind_name r.Flow.kind))
    (esc r.Flow.netlist.Netlist.name)
    (Netlist.num_nets r.Flow.netlist)
    (Grid.width r.Flow.grid) (Grid.height r.Flow.grid)
    r.Flow.netlist.Netlist.gcell_um;

  (* headline stat tiles *)
  let arow, acol, aum2 = r.Flow.area in
  add "<div class=\"tiles\">\n";
  tile "violations" (string_of_int (Flow.violation_count r));
  tile "violation rate" (Printf.sprintf "%.2f%%" (Flow.violation_pct r));
  tile "shields" (string_of_int r.Flow.shields);
  tile "avg WL (µm)" (Printf.sprintf "%.0f" r.Flow.avg_wl_um);
  tile "total WL (µm)" (Printf.sprintf "%.3e" r.Flow.total_wl_um);
  tile "area (µm²)" (Printf.sprintf "%.3e" aum2);
  add "</div>\n";
  addf "<p class=\"sub\">routing area %.0f &times; %.0f µm</p>\n" arow acol;

  (* per-phase wall-clock: this run plus the process-cumulative gauges *)
  add "<h2>Phase timings</h2>\n";
  add "<table>\n<thead><tr><th class=\"l\">phase</th><th>this run (s)</th><th>process total (s)</th></tr></thead>\n<tbody>\n";
  List.iter
    (fun (phase, s) ->
      addf "<tr><td class=\"l\">%s</td><td>%.2f</td><td>%.2f</td></tr>\n"
        (esc phase) s
        (gauge_of snapshot ~labels:[ ("phase", phase) ] "flow.phase_seconds"))
    (phase_rows r);
  add "</tbody>\n</table>\n";
  addf "<p class=\"sub\">%d flow run(s) recorded in this process</p>\n"
    (Metrics.counter_total snapshot "flow.runs");
  add
    (Chart.bars
       ~fmt:(Printf.sprintf "%.2f s")
       (List.map (fun (p, s) -> ("phase " ^ p, s)) (phase_rows r)));

  (* span self-time profile, present only when tracing was on — the
     report is written at the end of the run, so the ring holds the
     whole flow *)
  (match Eda_obs.Prof.current () with
  | [] -> ()
  | rows ->
      let all_self = List.fold_left (fun s p -> s +. p.Eda_obs.Prof.self_us) 0.0 rows in
      add "<h2>Profile</h2>\n";
      addf
        "<p class=\"sub\">top %d of %d span names by self time (total self \
         %.2f s); %d span(s) lost to trace-ring wraparound</p>\n"
        (min 10 (List.length rows))
        (List.length rows) (all_self /. 1e6)
        (Eda_obs.Trace.dropped_spans ());
      add
        "<table>\n<thead><tr><th class=\"l\">span</th><th>calls</th><th>total \
         (ms)</th><th>self (ms)</th><th>self %</th><th>p95 (ms)</th><th>max \
         (ms)</th></tr></thead>\n<tbody>\n";
      List.iteri
        (fun i p ->
          if i < 10 then
            addf
              "<tr><td class=\"l\">%s</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.1f</td><td>%.3f</td><td>%.3f</td></tr>\n"
              (esc p.Eda_obs.Prof.name) p.Eda_obs.Prof.calls
              (p.Eda_obs.Prof.total_us /. 1e3)
              (p.Eda_obs.Prof.self_us /. 1e3)
              (if all_self > 0.0 then 100.0 *. p.Eda_obs.Prof.self_us /. all_self
               else 0.0)
              (p.Eda_obs.Prof.p95_us /. 1e3)
              (p.Eda_obs.Prof.max_us /. 1e3))
        rows;
      add "</tbody>\n</table>\n");

  (* attribution drill-down, present only when --journal was on — the
     same folds gsino_run explain ranks with *)
  (match Eda_obs.Journal.events () with
  | [] -> ()
  | evs ->
      let module J = Eda_obs.Journal in
      let top_k = 5 in
      add "<h2>Top offenders</h2>\n";
      let dups = Metrics.counter_total snapshot "sino.panel_sig_dups"
      and uniq = Metrics.counter_total snapshot "sino.panel_sig_unique" in
      addf
        "<p class=\"sub\">%d journal events; panel signatures: %d unique, %d \
         duplicate solve(s) (%.1f%% cacheable)</p>\n"
        (List.length evs) uniq dups
        (if dups + uniq > 0 then
           100.0 *. float_of_int dups /. float_of_int (dups + uniq)
         else 0.0);
      let nets = J.Agg.top_nets ~k:top_k evs in
      if nets <> [] then begin
        add "<h3>Nets by route churn</h3>\n";
        add
          "<table>\n<thead><tr><th class=\"l\">net</th><th>reweights</th><th>pops</th><th>deletions</th></tr></thead>\n<tbody>\n";
        List.iter
          (fun row ->
            addf
              "<tr><td class=\"l\">%s</td><td>%.0f</td><td>%.0f</td><td>%.0f</td></tr>\n"
              (esc row.J.Agg.key)
              (J.Agg.datum row "reweights")
              (J.Agg.datum row "pops")
              (J.Agg.datum row "deletions"))
          nets;
        add "</tbody>\n</table>\n"
      end;
      let hot = J.Agg.top_panels ~k:top_k (J.Agg.panel_events evs) in
      if hot <> [] then begin
        add "<h3>Panels by SINO time</h3>\n";
        add
          "<table>\n<thead><tr><th class=\"l\">panel (region/dir)</th><th>time \
           (ms)</th><th>events</th><th>shields</th></tr></thead>\n<tbody>\n";
        List.iter
          (fun row ->
            addf
              "<tr><td class=\"l\">%s</td><td>%.2f</td><td>%d</td><td>%.0f</td></tr>\n"
              (esc row.J.Agg.key)
              (J.Agg.datum row "time_us" /. 1e3)
              row.J.Agg.count
              (J.Agg.datum row "shields"))
          hot;
        add "</tbody>\n</table>\n"
      end);

  (* congestion + shield heatmaps, one pair per routing direction,
     preceded by the pre-route predicted demand so prediction quality is
     visible at a glance *)
  add "<h2>Congestion and shields</h2>\n";
  List.iter
    (fun dir ->
      let d = Dir.to_string dir in
      addf "<h3>%s tracks</h3>\n" (esc d);
      addf
        "<figure><figcaption>Predicted track demand per region (%s, pre-route \
         RUDY); red cells predicted over capacity</figcaption>\n%s\n</figure>\n"
        (esc d)
        (Heatmap.render_predicted r.Flow.grid
           (Eda_analyze.Analyze.demand_map r.Flow.grid r.Flow.netlist dir)
           dir);
      addf
        "<figure><figcaption>Track utilization per region (%s); red cells exceed capacity</figcaption>\n%s\n</figure>\n"
        (esc d)
        (Heatmap.render ~mode:Heatmap.Utilization r.Flow.usage dir);
      addf
        "<figure><figcaption>Shield tracks per region (%s)</figcaption>\n%s\n</figure>\n"
        (esc d)
        (Heatmap.render ~mode:Heatmap.Shields r.Flow.usage dir))
    Dir.all;

  (* per-net noise margins against the paper's 0.15 V sink bound *)
  let audit = audit_of ~tech r in
  let shown = 20 in
  addf "<h2>Noise margin audit</h2>\n";
  addf
    "<p class=\"sub\">worst %d of %d nets; bound %.3f V at every sink</p>\n"
    (min shown (List.length audit))
    (List.length audit) tech.Tech.noise_bound_v;
  add
    "<table>\n<thead><tr><th class=\"l\">net</th><th>LSK</th><th>noise (V)</th><th>margin (V)</th><th class=\"l\">status</th></tr></thead>\n<tbody>\n";
  List.iteri
    (fun i e ->
      if i < shown then
        addf
          "<tr><td class=\"l\">%d</td><td>%.2f</td><td>%.4f</td><td>%+.4f</td><td class=\"l\">%s</td></tr>\n"
          e.Noise.net e.Noise.lsk e.Noise.noise_v e.Noise.margin_v
          (if e.Noise.violating then "<span class=\"bad\">&#10007; violation</span>"
           else "<span class=\"ok\">&#10003; ok</span>"))
    audit;
  add "</tbody>\n</table>\n";

  (* Phase I budget: the LSK bound and the Kth spread it induces *)
  add "<h2>Crosstalk budget (Phase I)</h2>\n";
  add "<div class=\"tiles\">\n";
  tile "LSK budget" (Printf.sprintf "%.2f" r.Flow.budget.Budget.lsk_budget);
  tile "nets budgeted"
    (string_of_int (Array.length r.Flow.budget.Budget.kth));
  add "</div>\n";
  (match Chart.linear_bins r.Flow.budget.Budget.kth with
  | [] -> add "<p class=\"sub\">no nets to bin</p>\n"
  | rows ->
      add "<figure><figcaption>Kth bound distribution across nets</figcaption>\n";
      add (Chart.bars ~fmt:(Printf.sprintf "%.0f") rows);
      add "\n</figure>\n");

  (* every histogram instrument in the snapshot, collapsed by default *)
  let hists =
    List.filter_map
      (fun (name, labels, v) ->
        match v with
        | Metrics.Histogram h -> Some (name ^ render_labels labels, h)
        | Metrics.Counter _ | Metrics.Gauge _ -> None)
      (Metrics.entries snapshot)
  in
  if hists <> [] then begin
    add "<h2>Metric distributions</h2>\n";
    List.iter
      (fun (name, h) ->
        addf
          "<details><summary>%s (n=%d, mean %.2f, p50 %.2f, p95 %.2f, p99 %.2f)</summary>\n%s\n</details>\n"
          (esc name) h.Metrics.count (Metrics.histogram_mean h)
          (Metrics.quantile h 0.50) (Metrics.quantile h 0.95)
          (Metrics.quantile h 0.99) (Chart.histogram h))
      hists
  end;

  (* the full registry, as the text report prints it *)
  add "<h2>Metrics appendix</h2>\n<pre>";
  add (esc (Format.asprintf "%a" Report.metrics_summary snapshot));
  add "</pre>\n</body>\n</html>\n";
  Buffer.contents b

let text ?(tech = Tech.default) ~snapshot (r : Flow.result) =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  Format.fprintf fmt "%a@\n@\n" Flow.pp_summary r;
  Cmap.render fmt r.Flow.usage;
  let audit = audit_of ~tech r in
  Format.fprintf fmt
    "@\nNoise margin audit (worst 10 of %d nets, bound %.3f V):@\n"
    (List.length audit) tech.Tech.noise_bound_v;
  List.iteri
    (fun i e ->
      if i < 10 then
        Format.fprintf fmt
          "  net %4d  lsk %8.2f  noise %.4f V  margin %+.4f V  %s@\n"
          e.Noise.net e.Noise.lsk e.Noise.noise_v e.Noise.margin_v
          (if e.Noise.violating then "VIOLATION" else "ok"))
    audit;
  Format.fprintf fmt "@\n";
  Report.metrics_summary fmt snapshot;
  Format.pp_print_flush fmt ();
  Buffer.contents b

let write_html ?tech ?title ~snapshot path r =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (html ?tech ?title ~snapshot r))
