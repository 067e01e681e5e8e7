(* gsino_lint — static analysis of routing solutions.

   Runs one or more flows (on a generated benchmark or a saved netlist
   file) and audits every result with the Eda_check invariant rules,
   printing coded GSL diagnostics.  Exit status: 0 when no
   Error-severity finding fired, 1 otherwise — so CI can gate on it.

   Shared flags (--trace/--metrics sinks, -v/-q, --jobs, circuit
   selection) come from Cli_common. *)
open Cmdliner
open Gsino
module Diag = Eda_check.Diag
module Sensitivity = Eda_netlist.Sensitivity
module C = Cli_common

let netlist_file_arg =
  C.netlist_file_arg
    ~doc:"Audit FILE (gsino-netlist v1) instead of a generated circuit."

let kind_arg =
  let doc =
    "Flow to audit: 'id-no', 'isino', 'gsino', or 'all' (runs all three)."
  in
  Arg.(value
     & opt
         (enum
            [
              ("id-no", [ Flow.Id_no ]);
              ("isino", [ Flow.Isino ]);
              ("gsino", [ Flow.Gsino ]);
              ("all", [ Flow.Id_no; Flow.Isino; Flow.Gsino ]);
            ])
         [ Flow.Gsino ]
     & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let lint circuit scale seed rate router budgeting jobs deadline netlist_file
    kinds print sinks panel_cache progress verbose quiet =
  let claimed = C.claim_stdout ~prog:"gsino_lint" sinks in
  let out = C.out_formatter ~claimed in
  C.with_obs ~pretty:print.C.pretty ~prog:"gsino_lint" ~progress ~sinks
    ~verbose ~quiet
  @@ fun () ->
  let tech = Tech.default in
  let netlist = C.netlist_of tech ~circuit ~scale ~seed netlist_file in
  let cache, cache_dir = panel_cache in
  let config kind =
    {
      Flow.Config.default with
      Flow.Config.kind;
      router;
      budgeting;
      seed;
      jobs;
      deadline_ms = deadline;
      cache;
      cache_dir;
    }
  in
  let grid, base = Flow.prepare ~config:(config Flow.Gsino) tech netlist in
  let sensitivity = Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate in
  let lint_one kind =
    let r = Flow.run ~grid ~base (config kind) tech ~sensitivity netlist in
    let diags = Flow.check ~tech r in
    C.print_diags out print diags;
    Format.fprintf out "gsino_lint: %s on %s: %a@." (Flow.kind_name kind)
      netlist.Eda_netlist.Netlist.name Diag.pp_summary diags;
    diags
  in
  let all = List.concat_map lint_one kinds in
  if Diag.has_errors all then C.exit_findings else C.exit_ok

let cmd =
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
    (Cmd.info "gsino_lint" ~version:"1.0.0" ~doc ~man)
    Term.(
      const lint $ C.circuit_arg $ C.scale_arg ~default:0.02 () $ C.seed_arg
      $ C.rate_arg $ C.router_arg $ C.budgeting_arg $ C.jobs_arg
      $ C.deadline_arg $ netlist_file_arg $ kind_arg $ C.diag_print_term
      $ C.Sinks.(term [ Trace; Profile; Metrics; Journal ])
      $ C.panel_cache_term $ C.progress_arg $ C.verbose_arg $ C.quiet_arg)

let () = exit (Cmd.eval' cmd)
