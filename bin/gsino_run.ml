(* gsino_run — command-line driver for the GSINO reproduction.

   Subcommands:
     run    — one circuit, one rate, all three flows
     suite  — the paper's full evaluation (Tables 1-3)
     table  — dump the LSK -> noise lookup table
     bounds — show the crosstalk budget statistics for a circuit

   The flags shared with the other drivers
   (--trace/--metrics/--profile/--journal/--report sinks, -v/-q, --jobs,
   circuit selection) live in Cli_common. *)
open Cmdliner
open Gsino
module Metrics = Eda_obs.Metrics
module C = Cli_common

let netlist_file_arg =
  C.netlist_file_arg
    ~doc:
      "Load the netlist from FILE (gsino-netlist v1) instead of generating \
       one."

let run_cmd =
  let run circuit scale seed rate router budgeting jobs deadline audit
      netlist_file sinks panel_cache progress verbose quiet =
    let claimed = C.claim_stdout ~prog:"gsino_run" sinks in
    let out = C.out_formatter ~claimed in
    C.with_obs ~prog:"gsino_run" ~progress ~sinks ~verbose ~quiet
    @@ fun () ->
    let tech = Tech.default in
    let netlist = C.netlist_of tech ~circuit ~scale ~seed netlist_file in
    Format.fprintf out "%a@." Eda_netlist.Netlist.pp_summary netlist;
    let cache, cache_dir = panel_cache in
    let config kind =
      {
        Flow.Config.kind;
        router;
        budgeting;
        seed;
        jobs;
        deadline_ms = deadline;
        audit;
        cache;
        cache_dir;
      }
    in
    let grid, base = Flow.prepare ~config:(config Flow.Id_no) tech netlist in
    Format.fprintf out "%a@.@." Eda_grid.Grid.pp grid;
    let sensitivity = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate in
    let flows =
      [
        Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity netlist;
        Flow.run ~grid ~base (config Flow.Isino) tech ~sensitivity netlist;
        Flow.run ~grid (config Flow.Gsino) tech ~sensitivity netlist;
      ]
    in
    List.iter (fun r -> Format.fprintf out "%a@." Flow.pp_summary r) flows;
    List.iter
      (fun r ->
        match r.Flow.refine_stats with
        | Some s ->
            Format.fprintf out "%s %a@." (Flow.kind_name r.Flow.kind) Refine.pp_stats s
        | None -> ())
      flows;
    (* self-audit: every flow run is checked against the GSL invariant
       rules; errors are printed in full, the rest summarized *)
    List.iter
      (fun r ->
        let diags = Flow.check ~tech r in
        Format.fprintf out "%s lint: %a@." (Flow.kind_name r.Flow.kind)
          Eda_check.Diag.pp_summary diags;
        List.iter
          (fun d ->
            if d.Eda_check.Diag.severity = Eda_check.Diag.Error then
              Format.fprintf out "  %s@." (Eda_check.Diag.to_line d))
          diags)
      flows;
    Format.fprintf out "@.%a" Report.metrics_summary (Metrics.snapshot ());
    match sinks.C.Sinks.report with
    | None -> ()
    | Some dest -> (
        let gsino_r = List.find (fun r -> r.Flow.kind = Flow.Gsino) flows in
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
            Format.fprintf out "wrote run report to %s@." file)
  in
  let doc = "Run ID+NO, iSINO and GSINO on one circuit at one sensitivity rate." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ C.circuit_arg $ C.scale_arg () $ C.seed_arg $ C.rate_arg
          $ C.router_arg $ C.budgeting_arg $ C.jobs_arg $ C.deadline_arg
          $ C.audit_arg $ netlist_file_arg $ C.Sinks.term C.Sinks.all
          $ C.panel_cache_term $ C.progress_arg $ C.verbose_arg $ C.quiet_arg)

let map_cmd =
  let run circuit scale seed rate jobs netlist_file panel_cache =
    C.guard_exceptions @@ fun () ->
    let tech = Tech.default in
    let netlist = C.netlist_of tech ~circuit ~scale ~seed netlist_file in
    let cache, cache_dir = panel_cache in
    let config kind =
      { Flow.Config.default with Flow.Config.kind; seed; jobs; cache; cache_dir }
    in
    let grid, base = Flow.prepare ~config:(config Flow.Id_no) tech netlist in
    let sensitivity = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate in
    let idno = Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity netlist in
    let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity netlist in
    Format.printf "%a@.@." Eda_netlist.Netlist.pp_summary netlist;
    Format.printf "conventional routing (nets only):@.%a@." Congestion_map.render
      idno.Flow.usage;
    Format.printf "GSINO (nets + shields):@.%a@." Congestion_map.render
      gsino.Flow.usage
  in
  let doc = "Print ASCII congestion maps before and after GSINO." in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(const run $ C.circuit_arg $ C.scale_arg () $ C.seed_arg $ C.rate_arg
          $ C.jobs_arg $ netlist_file_arg $ C.panel_cache_term)

let gen_cmd =
  let run circuit scale seed out =
    let tech = Tech.default in
    let netlist =
      Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale ~seed
        (C.profile_of_name circuit)
    in
    Eda_netlist.Io.save out netlist;
    Format.printf "wrote %a to %s@." Eda_netlist.Netlist.pp_summary netlist out
  in
  let out_arg =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "Generate a synthetic benchmark netlist and save it." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ C.circuit_arg $ C.scale_arg () $ C.seed_arg $ out_arg)

let suite_cmd =
  let run scale seed jobs circuits sinks panel_cache progress verbose quiet =
    let claimed = C.claim_stdout ~prog:"gsino_run" sinks in
    let out = C.out_formatter ~claimed in
    C.with_obs ~prog:"gsino_run" ~progress ~sinks ~verbose ~quiet
    @@ fun () ->
    let profiles =
      match circuits with
      | [] -> Eda_netlist.Generator.all_ibm
      | names -> List.map C.profile_of_name names
    in
    let cache, cache_dir = panel_cache in
    let suite = Report.run_suite ~profiles ~jobs ~cache ?cache_dir ~scale ~seed () in
    Format.fprintf out "%a@.%a@.%a@.%a@.%a@.%a@.%a@." Report.table1 suite
      Report.table2 suite Report.table3 suite Report.violations_summary suite
      Report.timing_summary suite Report.lint_summary suite
      Report.metrics_summary (Metrics.snapshot ())
  in
  let circuits_arg =
    let doc = "Circuits to include (default: all six)." in
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT" ~doc)
  in
  let doc = "Reproduce the paper's Tables 1-3 (both sensitivity rates)." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(const run $ C.scale_arg () $ C.seed_arg $ C.jobs_arg $ circuits_arg
          $ C.Sinks.(term [ Trace; Profile; Metrics; Journal ])
          $ C.panel_cache_term $ C.progress_arg $ C.verbose_arg $ C.quiet_arg)

let table_cmd =
  let run () =
    let model = Tech.lsk_model Tech.default in
    Format.printf "%a@.# LSK(um*K)\tnoise(V)@.%a@." Eda_lsk.Lsk.pp model
      Eda_util.Lintable.pp model.Eda_lsk.Lsk.table
  in
  let doc = "Build (via circuit simulation) and dump the LSK lookup table." in
  Cmd.v (Cmd.info "table" ~doc) Term.(const run $ const ())

let bounds_cmd =
  let run circuit scale seed =
    let tech = Tech.default in
    let profile = C.profile_of_name circuit in
    let netlist =
      Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale ~seed
        profile
    in
    let budget =
      Budget.uniform ~lsk:(Tech.lsk_model tech) ~noise_v:tech.Tech.noise_bound_v
        ~gcell_um:netlist.Eda_netlist.Netlist.gcell_um netlist
    in
    Format.printf "%a@.%a@." Eda_netlist.Netlist.pp_summary netlist Budget.pp budget
  in
  let doc = "Show the Phase-I crosstalk budget statistics for a circuit." in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(const run $ C.circuit_arg $ C.scale_arg () $ C.seed_arg)

let () =
  let doc = "Global routing with RLC crosstalk constraints (Ma & He, DAC 2002)" in
  let info = Cmd.info "gsino_run" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; suite_cmd; table_cmd; bounds_cmd; map_cmd; gen_cmd ]))
