module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Netlist = Eda_netlist.Netlist

type circuit_run = {
  profile : Generator.profile;
  rate : float;
  idno : Flow.result;
  isino : Flow.result;
  gsino : Flow.result;
}

type suite = { scale : float; seed : int; runs : circuit_run list }

module Paper = struct
  (* Table 1: percentages of crosstalk-violating nets in ID+NO. *)
  let violations_tbl =
    [
      ("ibm01", (14.60, 19.78));
      ("ibm02", (16.87, 22.16));
      ("ibm03", (18.85, 23.20));
      ("ibm04", (16.42, 18.92));
      ("ibm05", (14.71, 24.07));
      ("ibm06", (13.96, 19.11));
    ]

  (* Table 2: ID+NO average wire length (µm) and GSINO increase (%). *)
  let wl_tbl =
    [
      ("ibm01", (639., 6.89, 10.49));
      ("ibm02", (724., 9.94, 14.50));
      ("ibm03", (647., 10.82, 16.38));
      ("ibm04", (748., 8.96, 16.04));
      ("ibm05", (695., 6.62, 12.81));
      ("ibm06", (769., 7.54, 11.83));
    ]

  (* Table 3: area increases (%) over ID+NO. *)
  let area_tbl =
    [
      ("ibm01", ((17.04, 6.04), (25.53, 6.51)));
      ("ibm02", ((17.99, 5.74), (25.39, 9.54)));
      ("ibm03", ((17.18, 6.00), (23.82, 9.77)));
      ("ibm04", ((16.78, 7.31), (22.47, 7.67)));
      ("ibm05", ((19.73, 8.74), (23.00, 7.75)));
      ("ibm06", ((17.09, 8.26), (22.46, 11.00)));
    ]

  let is30 rate = Float.abs (rate -. 0.30) < 0.01
  let is50 rate = Float.abs (rate -. 0.50) < 0.01

  let violations name rate =
    match (List.assoc_opt name violations_tbl, is30 rate, is50 rate) with
    | Some (v, _), true, _ -> Some v
    | Some (_, v), _, true -> Some v
    | _ -> None

  let avg_wl name = Option.map (fun (w, _, _) -> w) (List.assoc_opt name wl_tbl)

  let wl_overhead name rate =
    match (List.assoc_opt name wl_tbl, is30 rate, is50 rate) with
    | Some (_, v, _), true, _ -> Some v
    | Some (_, _, v), _, true -> Some v
    | _ -> None

  let area_overhead name rate flow =
    match (List.assoc_opt name area_tbl, is30 rate, is50 rate) with
    | Some ((i, g), _), true, _ -> Some (match flow with `Isino -> i | `Gsino -> g)
    | Some (_, (i, g)), _, true -> Some (match flow with `Isino -> i | `Gsino -> g)
    | _ -> None
end

let run_circuit ?(tech = Tech.default) ?(jobs = 1) ?store ~scale ~seed profile
    rates =
  let netlist =
    Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale ~seed profile
  in
  let config kind = { Flow.Config.default with Flow.Config.kind; seed; jobs } in
  let grid, base = Flow.prepare ~config:(config Flow.Id_no) tech netlist in
  List.map
    (fun rate ->
      let sensitivity =
        Sensitivity.make ~seed:(seed lxor Hashtbl.hash (profile.Generator.name, rate)) ~rate
      in
      let run kind =
        Flow.run ~grid ~base ?cache:store (config kind) tech ~sensitivity netlist
      in
      let idno = run Flow.Id_no in
      let isino = run Flow.Isino in
      let gsino = run Flow.Gsino in
      { profile; rate; idno; isino; gsino })
    rates

let run_suite ?(tech = Tech.default) ?(profiles = Generator.all_ibm)
    ?(rates = [ 0.30; 0.50 ]) ?(jobs = 1) ?store ~scale ~seed () =
  let runs =
    List.concat_map
      (fun p -> run_circuit ~tech ~jobs ?store ~scale ~seed p rates)
      profiles
  in
  { scale; seed; runs }

let by_rate suite rate =
  List.filter (fun r -> Float.abs (r.rate -. rate) < 0.01) suite.runs

let rates_of suite =
  List.sort_uniq compare (List.map (fun r -> r.rate) suite.runs)

let pct_paper = function
  | Some v -> Printf.sprintf "[paper %5.2f%%]" v
  | None -> "[paper   n/a ]"

let table1 fmt suite =
  Format.fprintf fmt
    "Table 1: crosstalk-violating nets in ID+NO solutions (scale %.2f)@\n"
    suite.scale;
  List.iter
    (fun rate ->
      Format.fprintf fmt "  sensitivity rate = %.0f%%@\n" (rate *. 100.);
      List.iter
        (fun r ->
          Format.fprintf fmt "    %-6s %6d (%5.2f%%)  %s@\n"
            r.profile.Generator.name
            (Flow.violation_count r.idno)
            (Flow.violation_pct r.idno)
            (pct_paper (Paper.violations r.profile.Generator.name rate)))
        (by_rate suite rate))
    (rates_of suite)

let table2 fmt suite =
  Format.fprintf fmt
    "Table 2: average wire lengths (um) of ID+NO and GSINO (scale %.2f)@\n"
    suite.scale;
  List.iter
    (fun rate ->
      Format.fprintf fmt "  sensitivity rate = %.0f%%@\n" (rate *. 100.);
      List.iter
        (fun r ->
          let base = r.idno.Flow.avg_wl_um in
          let gs = r.gsino.Flow.avg_wl_um in
          let over = if base > 0. then (gs -. base) /. base *. 100. else 0. in
          Format.fprintf fmt
            "    %-6s ID+NO %4.0f [paper %4.0f]   GSINO %4.0f (%+5.2f%%) %s@\n"
            r.profile.Generator.name base
            (Option.value (Paper.avg_wl r.profile.Generator.name) ~default:0.)
            gs over
            (pct_paper (Paper.wl_overhead r.profile.Generator.name rate)))
        (by_rate suite rate))
    (rates_of suite)

let table3 fmt suite =
  Format.fprintf fmt
    "Table 3: routing areas (um x um) of ID+NO, iSINO and GSINO (scale %.2f)@\n"
    suite.scale;
  List.iter
    (fun rate ->
      Format.fprintf fmt "  sensitivity rate = %.0f%%@\n" (rate *. 100.);
      List.iter
        (fun r ->
          let dims res =
            let row, col, _ = res.Flow.area in
            Printf.sprintf "%.0fx%.0f" row col
          in
          let over res =
            let _, _, a0 = r.idno.Flow.area in
            let _, _, a = res.Flow.area in
            (a -. a0) /. a0 *. 100.
          in
          Format.fprintf fmt
            "    %-6s ID+NO %-11s iSINO %-11s (%+6.2f%%) %s  GSINO %-11s (%+6.2f%%) %s@\n"
            r.profile.Generator.name (dims r.idno) (dims r.isino) (over r.isino)
            (pct_paper (Paper.area_overhead r.profile.Generator.name rate `Isino))
            (dims r.gsino) (over r.gsino)
            (pct_paper (Paper.area_overhead r.profile.Generator.name rate `Gsino)))
        (by_rate suite rate))
    (rates_of suite)

let violations_summary fmt suite =
  Format.fprintf fmt
    "Residual violations after SINO + refinement (paper: 0 for both)@\n";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-6s rate %.0f%%: iSINO %d, GSINO %d"
        r.profile.Generator.name (r.rate *. 100.)
        (Flow.violation_count r.isino) (Flow.violation_count r.gsino);
      (match r.gsino.Flow.refine_stats with
      | Some s ->
          Format.fprintf fmt
            "  (GSINO phase3: %d nets fixed, %d shields removed)"
            s.Refine.pass1_nets_fixed s.Refine.pass2_shields_removed
      | None -> ());
      Format.fprintf fmt "@\n")
    suite.runs

let lint_summary fmt suite =
  Format.fprintf fmt
    "Lint: coded diagnostics per flow (Eda_check rules GSL0001-..)@\n";
  List.iter
    (fun r ->
      let cell res =
        let diags = Flow.check res in
        Printf.sprintf "%dE/%dW"
          (Eda_check.Diag.count Eda_check.Diag.Error diags)
          (Eda_check.Diag.count Eda_check.Diag.Warning diags)
      in
      Format.fprintf fmt "  %-6s rate %.0f%%: ID+NO %s  iSINO %s  GSINO %s@\n"
        r.profile.Generator.name (r.rate *. 100.) (cell r.idno) (cell r.isino)
        (cell r.gsino))
    suite.runs

let timing_summary fmt suite =
  Format.fprintf fmt
    "Wall-clock time per phase, seconds (paper: ID routing dominates)@\n";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %-6s rate %.0f%%: GSINO route %.1f | sino %.1f | refine %.1f@\n"
        r.profile.Generator.name (r.rate *. 100.) r.gsino.Flow.route_s
        r.gsino.Flow.sino_s r.gsino.Flow.refine_s)
    suite.runs

let metrics_summary fmt snap =
  let module M = Eda_obs.Metrics in
  (* metric name prefixes grouped by the flow phase they instrument *)
  let groups =
    [
      ("phase I: routing + budgeting", [ "budget"; "id_router"; "nc_router" ]);
      ("phase II: SINO", [ "phase2"; "sino" ]);
      ("phase III: refinement", [ "refine" ]);
      ("flow", [ "flow" ]);
      ("resilience", [ "guard" ]);
    ]
  in
  let prefix name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let render_labels = function
    | [] -> ""
    | l ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
        ^ "}"
  in
  Format.fprintf fmt "Per-phase metrics (Eda_obs registry)@\n";
  let entries = M.entries snap in
  let known = List.concat_map snd groups in
  let groups =
    groups
    @ [
        ( "other",
          List.sort_uniq compare
            (List.filter_map
               (fun (n, _, _) ->
                 let p = prefix n in
                 if List.mem p known then None else Some p)
               entries) );
      ]
  in
  List.iter
    (fun (title, prefixes) ->
      let es =
        List.filter (fun (n, _, _) -> List.mem (prefix n) prefixes) entries
      in
      if es <> [] then begin
        Format.fprintf fmt "  [%s]@\n" title;
        List.iter
          (fun (n, labels, v) ->
            let name = n ^ render_labels labels in
            match v with
            | M.Counter c -> Format.fprintf fmt "    %-36s %d@\n" name c
            | M.Gauge g -> Format.fprintf fmt "    %-36s %.3f@\n" name g
            | M.Histogram h ->
                (* approximate quantiles from the log2 buckets — the
                   shape of the distribution, not its raw bucket dump *)
                Format.fprintf fmt
                  "    %-36s n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f@\n"
                  name h.M.count (M.histogram_mean h) (M.quantile h 0.50)
                  (M.quantile h 0.95) (M.quantile h 0.99)
                  (if h.M.count = 0 then 0.0 else h.M.max))
          es
      end)
    groups
