(* gsino_audit — pre-route static analysis of a routing instance.

   Runs the Eda_analyze audit on a netlist (generated benchmark or
   gsino-netlist v1 file) without routing anything: provable cut
   overflows (GSL0024), clique shield pressure (GSL0025), Kth/LSK
   satisfiability (GSL0026) and the Formula-3 Nss cross-check
   (GSL0027), plus the RUDY congestion prediction and sensitivity-graph
   structure in the summary line.  Exit status follows the shared
   funnel: 0 clean (warnings allowed), 1 when an Error-severity finding
   proves the instance infeasible, 2 on usage or input errors.

   Shared flags (--trace/--metrics sinks with '-', -v/-q, circuit
   selection) come from Cli_common. *)
open Cmdliner
open Gsino
module Analyze = Eda_analyze.Analyze
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Sensitivity = Eda_netlist.Sensitivity
module C = Cli_common

let netlist_file_arg =
  C.netlist_file_arg
    ~doc:"Audit FILE (gsino-netlist v1) instead of a generated circuit."

let hcap_arg =
  let doc =
    "Horizontal track capacity per region (0 = auto-provision like the \
     flow's grid).  Explicit capacities let the audit answer 'does this \
     instance fit THIS placement' rather than one sized to fit."
  in
  Arg.(value & opt int 0 & info [ "hcap" ] ~docv:"N" ~doc)

let vcap_arg =
  let doc = "Vertical track capacity per region (0 = auto-provision)." in
  Arg.(value & opt int 0 & info [ "vcap" ] ~docv:"N" ~doc)

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

let audit circuit scale seed rate hcap vcap netlist_file print sinks progress
    verbose quiet =
  let claimed = C.claim_stdout ~prog:"gsino_audit" sinks in
  let out = C.out_formatter ~claimed in
  C.with_obs ~pretty:print.C.pretty ~prog:"gsino_audit" ~progress ~sinks
    ~verbose ~quiet
  @@ fun () ->
  let tech = Tech.default in
  let netlist = C.netlist_of tech ~circuit ~scale ~seed netlist_file in
  let grid = grid_of tech netlist ~hcap ~vcap in
  let sensitivity = Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate in
  let t = Analyze.run (Flow.analyze_config tech) ~grid ~sensitivity netlist in
  C.print_diags out print t.Analyze.findings;
  Format.fprintf out "%a@." Analyze.pp_summary t;
  if Analyze.has_errors t then C.exit_findings else C.exit_ok

let cmd =
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
    (Cmd.info "gsino_audit" ~version:"1.0.0" ~doc ~man)
    Term.(
      const audit $ C.circuit_arg $ C.scale_arg ~default:0.02 () $ C.seed_arg
      $ C.rate_arg $ hcap_arg $ vcap_arg $ netlist_file_arg $ C.diag_print_term
      $ C.Sinks.(term [ Trace; Profile; Metrics; Journal ])
      $ C.progress_arg $ C.verbose_arg $ C.quiet_arg)

let () = exit (Cmd.eval' cmd)
