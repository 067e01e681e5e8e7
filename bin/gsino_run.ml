(* gsino_run — command-line driver for the GSINO reproduction.

   Subcommands:
     run     — one circuit, one rate, all three flows
     suite   — the paper's full evaluation (Tables 1-3)
     table   — dump the LSK -> noise lookup table
     bounds  — show the crosstalk budget statistics for a circuit
     map     — ASCII congestion maps before and after GSINO
     gen     — generate a synthetic netlist and save it
     lint    — check routing-solution invariants, coded GSL diagnostics
     audit   — prove routing-instance infeasibility before routing
     explain — drill into a gsino-journal-v1 attribution journal
     diff    — compare two gsino-metrics-v1 snapshots, gate on a policy

   `run`, `lint` and `map` reach the flows through Flow.run_kinds, the
   entry the serve daemon uses too.  The flag groups shared with
   gsino_serve (the netlist source, the flow request, the observability
   set, --panel-cache) and the failure funnel every command returns its
   exit code through live in Cli_common. *)
open Cmdliner
open Gsino
module Metrics = Eda_obs.Metrics
module Diag = Eda_check.Diag
module C = Cli_common

let prog = "gsino_run"
let all_kinds = List.map snd C.kind_names

let netlist_doc =
  "Load the netlist from FILE (gsino-netlist v1) instead of generating one."

(* ---------------- run ---------------- *)

(* What `run` prints of one flow, rendered as soon as the flow ends. *)
type rendered = {
  grid : Eda_grid.Grid.t;
  summary : string;
  stats : string option;  (** Phase III statistics; iSINO and GSINO only *)
  lint : string list;  (** the check summary, then each error in full *)
}

let run_cmd =
  let run src config rate obs panel_cache =
    C.with_obs ~prog obs @@ fun out ->
    let tech = Tech.default in
    let netlist = C.netlist tech src in
    Format.fprintf out "%a@." Eda_netlist.Netlist.pp_summary netlist;
    (* each flow is rendered as it ends, so only one flow's solution is
       alive at a time; the GSINO one is kept for --report *)
    let report_flow = ref None in
    let render r =
      if r.Flow.kind = Flow.Gsino then report_flow := Some r;
      let kind = Flow.kind_name r.Flow.kind in
      (* self-audit: every flow run is checked against the GSL invariant
         rules; errors are printed in full, the rest summarized *)
      let diags = Flow.check ~tech r in
      {
        grid = r.Flow.grid;
        summary = Format.asprintf "%a" Flow.pp_summary r;
        stats =
          Option.map
            (Format.asprintf "%s %a" kind Refine.pp_stats)
            r.Flow.refine_stats;
        lint =
          Format.asprintf "%s lint: %a" kind Diag.pp_summary diags
          :: List.filter_map
               (fun d ->
                 if d.Diag.severity = Diag.Error then
                   Some ("  " ^ Diag.to_line d)
                 else None)
               diags;
      }
    in
    let flows =
      C.with_panel_store panel_cache (fun cache ->
          Flow.run_kinds ?cache config tech ~rate all_kinds netlist ~f:render)
    in
    let line = Format.fprintf out "%s@." in
    Format.fprintf out "%a@.@." Eda_grid.Grid.pp (List.hd flows).grid;
    List.iter (fun f -> line f.summary) flows;
    List.iter (fun f -> Option.iter line f.stats) flows;
    List.iter (fun f -> List.iter line f.lint) flows;
    Format.fprintf out "@.%a" Report.metrics_summary (Metrics.snapshot ());
    (match (C.Sinks.get obs.C.sinks Report, !report_flow) with
    | None, _ | _, None -> ()
    | Some dest, Some gsino_r -> (
        let snapshot = Metrics.snapshot () in
        let title =
          Printf.sprintf "GSINO run report: %s"
            netlist.Eda_netlist.Netlist.name
        in
        match dest with
        | "-" ->
            print_string
              (Eda_reportviz.Run_report.text ~tech ~snapshot gsino_r)
        | file ->
            Eda_reportviz.Run_report.write_html ~tech ~title ~snapshot file
              gsino_r;
            Format.fprintf out "wrote run report to %s@." file));
    C.exit_ok
  in
  let doc = "Run ID+NO, iSINO and GSINO on one circuit at one sensitivity rate." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run
      $ C.source_term ~netlist:netlist_doc ~scale:0.05 ()
      $ C.flow_term C.[ Seed; Router; Budgeting; Jobs; Deadline; Audit ]
      $ C.rate_arg
      $ C.obs_term ~progress:true C.Sinks.all
      $ C.panel_cache_term)

(* ---------------- map / gen / suite / table / bounds ---------------- *)

let map_cmd =
  let run src config rate panel_cache =
    C.guarded ~faults:true ~prog @@ fun out ->
    let tech = Tech.default in
    let netlist = C.netlist tech src in
    let usages =
      C.with_panel_store panel_cache (fun cache ->
          Flow.run_kinds ?cache config tech ~rate [ Flow.Id_no; Flow.Gsino ]
            netlist ~f:(fun r -> r.Flow.usage))
    in
    Format.fprintf out "%a@.@." Eda_netlist.Netlist.pp_summary netlist;
    List.iter2
      (fun title usage ->
        Format.fprintf out "%s:@.%a@." title Congestion_map.render usage)
      [ "conventional routing (nets only)"; "GSINO (nets + shields)" ]
      usages;
    C.exit_ok
  in
  let doc = "Print ASCII congestion maps before and after GSINO." in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(
      const run
      $ C.source_term ~netlist:netlist_doc ~scale:0.05 ()
      $ C.flow_term C.[ Seed; Jobs ]
      $ C.rate_arg $ C.panel_cache_term)

let gen_cmd =
  let run src file =
    C.guarded ~faults:true ~prog @@ fun out ->
    let netlist = C.netlist Tech.default src in
    Eda_netlist.Io.save file netlist;
    Format.fprintf out "wrote %a to %s@." Eda_netlist.Netlist.pp_summary netlist
      file;
    C.exit_ok
  in
  let out_arg =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "Generate a synthetic benchmark netlist and save it." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ C.source_term ~scale:0.05 () $ out_arg)

let suite_cmd =
  let run scale config circuits obs panel_cache =
    C.with_obs ~prog obs @@ fun out ->
    let profiles =
      match circuits with
      | [] -> Eda_netlist.Generator.all_ibm
      | names -> List.map C.profile_of_name names
    in
    let suite =
      C.with_panel_store panel_cache (fun store ->
          Report.run_suite ~profiles ~jobs:config.Flow.Config.jobs ?store ~scale
            ~seed:config.seed ())
    in
    Format.fprintf out "%a@.%a@.%a@.%a@.%a@.%a@.%a@." Report.table1 suite
      Report.table2 suite Report.table3 suite Report.violations_summary suite
      Report.timing_summary suite Report.lint_summary suite
      Report.metrics_summary (Metrics.snapshot ());
    C.exit_ok
  in
  let circuits_arg =
    let doc = "Circuits to include (default: all six)." in
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT" ~doc)
  in
  let doc = "Reproduce the paper's Tables 1-3 (both sensitivity rates)." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      const run $ C.scale_arg ()
      $ C.flow_term C.[ Seed; Jobs ]
      $ circuits_arg
      $ C.obs_term ~progress:true C.Sinks.[ Trace; Profile; Metrics; Journal ]
      $ C.panel_cache_term)

let table_cmd =
  let run () =
    C.guarded ~faults:true ~prog @@ fun out ->
    (* simulated, not read from Tech: this is the circuit simulator's
       command-line entry point *)
    let model =
      Eda_lsk.Table_builder.build ~keff:Tech.default.Tech.keff
        Eda_lsk.Table_builder.default_electrical
    in
    Format.fprintf out "%a@.# LSK(um*K)\tnoise(V)@.%a@." Eda_lsk.Lsk.pp model
      Eda_util.Lintable.pp model.Eda_lsk.Lsk.table;
    C.exit_ok
  in
  let doc =
    "Build the LSK lookup table by circuit simulation and dump it.  The \
     flows read the same table, computed when the program was built."
  in
  Cmd.v (Cmd.info "table" ~doc) Term.(const run $ const ())

let bounds_cmd =
  let run src =
    C.guarded ~faults:true ~prog @@ fun out ->
    let tech = Tech.default in
    let netlist = C.netlist tech src in
    let budget =
      Budget.uniform ~lsk:(Tech.lsk_model tech) ~noise_v:tech.Tech.noise_bound_v
        ~gcell_um:netlist.Eda_netlist.Netlist.gcell_um netlist
    in
    Format.fprintf out "%a@.%a@." Eda_netlist.Netlist.pp_summary netlist Budget.pp
      budget;
    C.exit_ok
  in
  let doc = "Show the Phase-I crosstalk budget statistics for a circuit." in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(const run $ C.source_term ~scale:0.05 ())

(* ---------------- lint ---------------- *)

(* The netlist source of lint and audit: small by default. *)
let audited_source =
  C.source_term
    ~netlist:"Audit FILE (gsino-netlist v1) instead of a generated circuit."
    ~scale:0.02 ()

let lint_cmd =
  let prog = "gsino_run lint" in
  let lint src config rate kinds print obs panel_cache =
    C.with_obs ~pretty:print.C.pretty ~prog obs @@ fun out ->
    let tech = Tech.default in
    let netlist = C.netlist tech src in
    let lint_one r =
      let diags = Flow.check ~tech r in
      C.print_diags out print diags;
      Format.fprintf out "%s: %s on %s: %a@." prog (Flow.kind_name r.Flow.kind)
        netlist.Eda_netlist.Netlist.name Diag.pp_summary diags;
      diags
    in
    let all =
      C.with_panel_store panel_cache (fun cache ->
          Flow.run_kinds ?cache config tech ~rate kinds netlist ~f:lint_one)
      |> List.concat
    in
    if Diag.has_errors all then C.exit_findings else C.exit_ok
  in
  let kind_arg =
    let doc =
      "Flow to audit: 'id-no', 'isino', 'gsino', or 'all' (runs all three)."
    in
    let kinds = List.map (fun (name, k) -> (name, [ k ])) C.kind_names in
    Arg.(value
       & opt (enum (kinds @ [ ("all", all_kinds) ])) [ Flow.Gsino ]
       & info [ "k"; "kind" ] ~docv:"KIND" ~doc)
  in
  let doc = "Check routing-solution invariants and report coded diagnostics" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a GSINO flow and statically checks the resulting routing \
         solution: routes on-grid, connected and acyclic; track and shield \
         accounting consistent; Phase-I Kth bounds partitioned from the LSK \
         budget; SINO panels covering every occupied region.  Findings are \
         printed one per line as '$(b,GSL)NNNN E|W|I locus message'.";
      `P "Exits 0 when no Error-severity diagnostic fired, 1 otherwise.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const lint $ audited_source
      $ C.flow_term C.[ Seed; Router; Budgeting; Jobs; Deadline ]
      $ C.rate_arg $ kind_arg $ C.diag_print_term
      $ C.obs_term ~progress:true C.Sinks.[ Trace; Profile; Metrics; Journal ]
      $ C.panel_cache_term)

(* ---------------- audit ---------------- *)

let audit_cmd =
  let module Analyze = Eda_analyze.Analyze in
  let module Grid = Eda_grid.Grid in
  let module Dir = Eda_grid.Dir in
  let prog = "gsino_run audit" in
  let grid_of tech netlist ~hcap ~vcap =
    let auto = Tech.grid_for tech netlist in
    if hcap <= 0 && vcap <= 0 then auto
    else begin
      let auto_cap dir =
        if Grid.num_regions auto = 0 then 0
        else Grid.cap auto (Grid.region_pt auto 0) dir
      in
      Grid.make ~w:(Grid.width auto) ~h:(Grid.height auto)
        ~hcap:(if hcap > 0 then hcap else auto_cap Dir.H)
        ~vcap:(if vcap > 0 then vcap else auto_cap Dir.V)
    end
  in
  let audit src rate hcap vcap print obs =
    C.with_obs ~pretty:print.C.pretty ~prog obs @@ fun out ->
    let tech = Tech.default in
    let netlist = C.netlist tech src in
    let grid = grid_of tech netlist ~hcap ~vcap in
    let sensitivity =
      Eda_netlist.Sensitivity.make ~seed:(src.C.seed lxor 0xbeef) ~rate
    in
    let t = Analyze.run (Flow.analyze_config tech) ~grid ~sensitivity netlist in
    C.print_diags out print t.Analyze.findings;
    Format.fprintf out "%a@." Analyze.pp_summary t;
    if Analyze.has_errors t then C.exit_findings else C.exit_ok
  in
  let hcap_arg =
    let doc =
      "Horizontal track capacity per region (0 = auto-provision like the \
       flow's grid).  Explicit capacities let the audit answer 'does this \
       instance fit THIS placement' rather than one sized to fit."
    in
    Arg.(value & opt int 0 & info [ "hcap" ] ~docv:"N" ~doc)
  in
  let vcap_arg =
    let doc = "Vertical track capacity per region (0 = auto-provision)." in
    Arg.(value & opt int 0 & info [ "vcap" ] ~docv:"N" ~doc)
  in
  let doc = "Prove routing-instance infeasibility before routing anything" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Statically audits a routing instance — netlist, grid capacities, \
         sensitivity model and LSK budget — without running a router.  \
         Reports provable cut-capacity overflows ($(b,GSL0024)), sensitivity \
         cliques whose shield lower bound exceeds a region's tracks \
         ($(b,GSL0025)), Kth/LSK bounds unmeetable even fully shielded \
         ($(b,GSL0026)) and Formula-3 Nss estimates provably below the \
         clique bound ($(b,GSL0027)).  Findings are printed one per line as \
         '$(b,GSL)NNNN E|W|I locus message'.";
      `P
        "Exits 0 when no Error-severity finding fired (the instance may \
         still be hard — the audit is sound, not complete), 1 when the \
         instance is provably infeasible, 2 on usage or input errors.";
    ]
  in
  Cmd.v
    (Cmd.info "audit" ~doc ~man)
    Term.(
      const audit $ audited_source $ C.rate_arg $ hcap_arg $ vcap_arg
      $ C.diag_print_term
      $ C.obs_term ~progress:true C.Sinks.[ Trace; Profile; Metrics; Journal ])

(* ---------------- explain ---------------- *)

module Explain = struct
  module Journal = Eda_obs.Journal
  module Agg = Journal.Agg

  let is_ev name e = e.Journal.ev = name
  let panel_ev e = is_ev "panel.solve" e || is_ev "panel.resolve" e

  let ms row field = Agg.datum row field /. 1e3
  let i row field = int_of_float (Agg.datum row field)

  let pp_outcomes fmt row =
    match row.Agg.outcomes with
    | [] -> ()
    | l ->
        Format.fprintf fmt " [%s]"
          (String.concat " "
             (List.map (fun (o, n) -> Printf.sprintf "%s:%d" o n) l))

  let view_summary evs =
    let tally = Hashtbl.create 8 in
    List.iter
      (fun e ->
        Hashtbl.replace tally e.Journal.ev
          (1 + Option.value (Hashtbl.find_opt tally e.Journal.ev) ~default:0))
      evs;
    let kinds =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] |> List.sort compare
    in
    Format.printf "%d events:%s@." (List.length evs)
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) kinds))

  let view_top_nets ~k evs =
    let rows = Agg.top_nets ~k evs in
    if rows <> [] then begin
      Format.printf "@.Top %d nets by route churn (reweights):@."
        (List.length rows);
      Format.printf "  %-8s %10s %10s %10s %10s@." "net" "reweights" "pops"
        "deletions" "essential";
      List.iter
        (fun r ->
          Format.printf "  %-8s %10d %10d %10d %10d%a@." r.Agg.key
            (i r "reweights") (i r "pops") (i r "deletions") (i r "essential")
            pp_outcomes r)
        rows
    end

  let view_top_refined ~k evs =
    let rows =
      Agg.top ~by:"time_us" ~k
        (Agg.by_dim "net" (List.filter (is_ev "panel.resolve") evs))
    in
    if rows <> [] then begin
      Format.printf "@.Top %d nets by refinement time:@." (List.length rows);
      Format.printf "  %-8s %10s %10s@." "net" "time_ms" "resolves";
      List.iter
        (fun r ->
          Format.printf "  %-8s %10.2f %10d%a@." r.Agg.key (ms r "time_us")
            r.Agg.count pp_outcomes r)
        rows
    end

  let view_top_regions ~k evs =
    let rows =
      Agg.top ~by:"reweights" ~k
        (Agg.by_dim "region" (List.filter (is_ev "region.reweight") evs))
    in
    if rows <> [] then begin
      Format.printf "@.Top %d regions by reweights:@." (List.length rows);
      Format.printf "  %-8s %10s@." "region" "reweights";
      List.iter
        (fun r -> Format.printf "  %-8s %10d@." r.Agg.key (i r "reweights"))
        rows
    end

  let view_top_panels ~k evs =
    let panels = Agg.panel_events evs in
    let rows = Agg.top_panels ~k panels in
    if rows <> [] then begin
      let total =
        List.fold_left
          (fun acc e ->
            acc +. Option.value (Journal.data_value e "time_us") ~default:0.0)
          0.0 panels
      in
      Format.printf
        "@.Top %d panels by SINO time (total %.2f ms over %d events):@."
        (List.length rows) (total /. 1e3) (List.length panels);
      Format.printf "  %-10s %10s %10s %10s@." "panel" "time_ms" "events"
        "shields";
      List.iter
        (fun r ->
          Format.printf "  %-10s %10.2f %10d %10d%a@." r.Agg.key
            (ms r "time_us") r.Agg.count (i r "shields") pp_outcomes r)
        rows
    end

  let view_by_signature ~k evs =
    let panels = List.filter panel_ev evs in
    let rows = Agg.by_dim "sig" panels in
    let total = List.fold_left (fun acc r -> acc + r.Agg.count) 0 rows in
    let unique = List.length rows in
    let dup_events = total - unique in
    let dup_time =
      List.fold_left
        (fun acc r ->
          if r.Agg.count > 1 then
            (* first sight would still be solved; repeats are cacheable *)
            acc
            +. Agg.datum r "time_us"
               *. (float_of_int (r.Agg.count - 1) /. float_of_int r.Agg.count)
          else acc)
        0.0 rows
    in
    Format.printf
      "@.Panel signatures: %d events, %d unique, %d duplicates (%.1f%% \
       cacheable, ~%.2f ms of repeat SINO work)@."
      total unique dup_events
      (if total = 0 then 0.0
       else 100.0 *. float_of_int dup_events /. float_of_int total)
      (dup_time /. 1e3);
    let rows =
      Agg.top ~by:"time_us" ~k (List.filter (fun r -> r.Agg.count > 1) rows)
    in
    if rows <> [] then begin
      Format.printf "  %-18s %8s %10s %8s@." "signature" "events" "time_ms"
        "nets";
      List.iter
        (fun r ->
          Format.printf "  %-18s %8d %10.2f %8d%a@." r.Agg.key r.Agg.count
            (ms r "time_us")
            (i r "nets" / max 1 r.Agg.count)
            pp_outcomes r)
        rows
    end

  let member_of net e =
    match Journal.dim_value e "members" with
    | None -> false
    | Some m -> List.mem (string_of_int net) (String.split_on_char ',' m)

  let pp_chain_event fmt e =
    let dim k = Journal.dim_value e k in
    let datum k =
      match Journal.data_value e k with
      | None -> ""
      | Some v ->
          if Float.is_integer v then Printf.sprintf " %s=%.0f" k v
          else Printf.sprintf " %s=%g" k v
    in
    let where =
      match (dim "region", dim "dir") with
      | Some r, Some d -> Printf.sprintf " region %s/%s" r d
      | (Some _ | None), _ -> ""
    in
    let pass = match dim "pass" with Some p -> " " ^ p | None -> "" in
    let sg = match dim "sig" with Some s -> " sig " ^ s | None -> "" in
    let outcome =
      match e.Journal.outcome with Some o -> " -> " ^ o | None -> ""
    in
    Format.fprintf fmt "  %-14s%s%s%s%s%s" e.Journal.ev pass where sg
      (String.concat "" (List.map (fun (k, _) -> datum k) e.Journal.data))
      outcome

  let view_net net evs =
    let mine =
      List.filter
        (fun e ->
          Journal.dim_value e "net" = Some (string_of_int net)
          || (is_ev "panel.solve" e && member_of net e))
        evs
    in
    if mine = [] then Format.printf "net %d: no journal events@." net
    else begin
      Format.printf "@.Provenance of net %d (%d events):@." net
        (List.length mine);
      (* budget -> route -> panels solved around it -> refine touches *)
      let order e =
        match e.Journal.ev with
        | "net.budget" -> 0
        | "net.route" -> 1
        | "panel.solve" -> 2
        | "panel.resolve" -> 3
        | "net.refine" -> 4
        | _ -> 5
      in
      List.stable_sort (fun a b -> compare (order a) (order b)) mine
      |> List.iter (fun e -> Format.printf "%a@." pp_chain_event e)
    end

  let run top net by_sig obs file =
    C.guarded ~obs ~prog @@ fun _ ->
    match Journal.load file with
    | Error msg -> C.usage "gsino_run explain: %s" msg
    | Ok evs ->
        let k = max 1 top in
        view_summary evs;
        (match net with
        | Some n -> view_net n evs
        | None ->
            view_top_nets ~k evs;
            view_top_refined ~k evs;
            view_top_regions ~k evs;
            view_top_panels ~k evs);
        if by_sig || net = None then view_by_signature ~k evs;
        C.exit_ok
end

let explain_cmd =
  let journal_pos =
    let doc = "Journal file (gsino-journal-v1 JSONL); '-' reads stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)
  in
  let top_arg =
    let doc = "Rows per top-K view." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let net_arg =
    let doc =
      "Print the provenance chain of one net: its budget, route churn, the \
       panels it sat in, and every refinement touch."
    in
    Arg.(value & opt (some int) None & info [ "net" ] ~docv:"N" ~doc)
  in
  let by_sig_arg =
    let doc =
      "Group panel events by canonical panel signature and report duplicate \
       recurrence — how much SINO work a content-addressed panel cache \
       would have absorbed."
    in
    Arg.(value & flag & info [ "by-signature" ] ~doc)
  in
  let doc = "Explain where a routing run spent its work" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Folds a gsino-journal-v1 attribution journal (from $(b,gsino_run \
         run --journal)) into drill-down views: the hottest nets by route \
         churn, the nets refinement spent the most SINO time on, the \
         regions with the most edge reweights, the most expensive panels, \
         and — with $(b,--by-signature) — duplicate-panel recurrence by \
         canonical signature, the repeat work the content-addressed panel \
         cache can absorb.";
      `P
        "With $(b,--net) the drill-down becomes one net's provenance \
         chain: budget, route churn, the panels it sat in and every \
         refinement touch, in flow order.";
      `P "Exits 0 on success, 2 when the journal cannot be read.";
    ]
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~man)
    Term.(const Explain.run $ top_arg $ net_arg $ by_sig_arg $ C.obs_term []
          $ journal_pos)

(* ---------------- diff ---------------- *)

let diff_cmd =
  let module Diff = Eda_obs.Diff in
  let prog = "gsino_run diff" in
  (* plain strings, not Arg.file, and optional at the cmdliner layer: a
     missing or unreadable snapshot must leave through our documented
     exit 2 with a readable message, not cmdliner's 124.  Their presence
     is enforced in [run]. *)
  let baseline_arg =
    let doc = "Baseline metrics snapshot (gsino-metrics-v1 JSON)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)
  in
  let current_arg =
    let doc = "Current metrics snapshot (gsino-metrics-v1 JSON)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)
  in
  let policy_arg =
    let doc =
      "Regression policy (gsino-diff-policy-v1 JSON).  Each tolerance names \
       a guarded metric, the drift direction it guards, and the allowed \
       max_abs/max_rel drift; any breach makes the exit status 1."
    in
    Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"FILE" ~doc)
  in
  let all_arg =
    let doc = "Print unchanged series too, not just the drifted ones." in
    Arg.(value & flag & info [ "a"; "all" ] ~doc)
  in
  let load path =
    match Metrics.read_json path with
    | Ok s -> s
    | Error msg -> C.usage "%s: %s" prog msg
  in
  (* (added, removed, changed) series counts *)
  let tally entries =
    List.fold_left
      (fun (a, r, c) e ->
        match e.Diff.change with
        | Diff.Added _ -> (a + 1, r, c)
        | Diff.Removed _ -> (a, r + 1, c)
        | Diff.Changed _ -> (a, r, c + 1)
        | Diff.Unchanged _ -> (a, r, c))
      (0, 0, 0) entries
  in
  let run policy all obs baseline current =
    C.guarded ~obs ~prog @@ fun _ ->
    let pol =
      match policy with
      | None -> None
      | Some file -> (
          match Diff.load_policy file with
          | Error msg -> C.usage "%s: %s" prog msg
          | Ok p -> Some p)
    in
    let baseline, current =
      match (baseline, current) with
      | Some baseline, Some current -> (baseline, current)
      | None, _ | _, None ->
          C.usage "%s: BASELINE and CURRENT snapshots are required" prog
    in
    let entries = Diff.diff (load baseline) (load current) in
    let entries =
      match pol with Some p -> Diff.apply_exclude p entries | None -> entries
    in
    let shown = List.filter (fun e -> all || Diff.changed e) entries in
    if shown = [] then print_endline "no metric drift"
    else begin
      Format.printf "  %-44s %-9s %14s %14s %14s %s@." "series" "kind" "before"
        "after" "delta" "rel";
      List.iter (fun e -> Format.printf "%a@." Diff.pp_entry e) shown;
      let added, removed, changed = tally entries in
      Format.printf "%d series: %d added, %d removed, %d changed@."
        (List.length entries) added removed changed
    end;
    match pol with
    | None -> C.exit_ok
    | Some p -> (
        match Diff.check p entries with
        | [] ->
            Format.printf "regression gate: OK (%d guarded metrics)@."
              (List.length p.Diff.tolerances);
            C.exit_ok
        | breaches ->
            Format.printf "regression gate: %d breach(es)@."
              (List.length breaches);
            List.iter
              (fun b -> Format.printf "  BREACH %a@." Diff.pp_breach b)
              breaches;
            C.exit_findings)
  in
  let doc = "Diff two gsino-metrics-v1 snapshots and gate on a policy" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compares the metric series of two exported snapshots (from \
         $(b,gsino_run run --metrics)).  Without $(b,--policy) this is \
         purely informational.  With a policy, guarded metrics may drift \
         only in the allowed direction and within the per-metric \
         max_abs/max_rel tolerances; an added, removed or over-tolerance \
         guarded series is a breach.";
      `P
        "Exits 0 when within policy, 1 on a breach, 2 when a snapshot or \
         the policy cannot be read.";
    ]
  in
  Cmd.v
    (Cmd.info "diff" ~doc ~man)
    Term.(const run $ policy_arg $ all_arg $ C.obs_term [] $ baseline_arg
          $ current_arg)

let () =
  let doc = "Global routing with RLC crosstalk constraints (Ma & He, DAC 2002)" in
  let info = Cmd.info "gsino_run" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            suite_cmd;
            table_cmd;
            bounds_cmd;
            map_cmd;
            gen_cmd;
            lint_cmd;
            audit_cmd;
            explain_cmd;
            diff_cmd;
          ]))
