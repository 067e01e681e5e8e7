(* cli_common — flags, exit codes, observability plumbing and the panel
   store shared by the two command-line drivers, gsino_run and
   gsino_serve.

   Every subcommand exposes the same conventions:
   --trace/--metrics/--profile/--journal/--report accept '-' for stdout,
   at most one sink may claim it (two claims are a GSL0029 usage error),
   and a claimed stdout silences the human-readable output so the
   artifact stays machine-parseable.  Exit codes are uniform across the drivers and
   mirror Eda_guard.Error.exit_code: 0 success (possibly degraded),
   1 findings/regression breach, 2 usage or input error, 5 internal
   error (singular matrix, worker crash, non-finite value), 6 server
   overloaded (serve backpressure), 7 peer/stream i/o failure.  Every
   failure leaves through one funnel (guard_exceptions, via
   Error.classify) as a coded GSL diagnostic — no uncaught exception
   reaches the user. *)
open Cmdliner
open Gsino
module Generator = Eda_netlist.Generator
module Trace = Eda_obs.Trace
module Artifact = Eda_obs.Artifact
module Log = Eda_obs.Log
module Diag = Eda_check.Diag
module Error = Eda_guard.Error
module Fault = Eda_guard.Fault

(* ---------------- exit codes ---------------- *)

let exit_ok = 0
let exit_findings = 1
let exit_usage = 2
let exit_internal = 5

(* A closed stdout/stderr/socket must surface as a typed Io error (exit
   7) through the funnel below, not kill the process: without this a
   pager quitting mid-report delivers SIGPIPE and the run dies with no
   diagnostic.  Unix writes then fail with EPIPE (mapped by
   Error.of_exn); stdio channels raise the equivalent Sys_error. *)
let () =
  if Sys.os_type = "Unix" then
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

(* ---------------- shared flags ---------------- *)

let circuit_arg =
  let doc = "Benchmark circuit (ibm01..ibm06)." in
  Arg.(value & opt string "ibm01" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

(* A float confined to [range]: anything else, NaN included, is
   cmdliner's usage error (exit 124) naming the option, as a malformed
   --jobs is, before any work starts. *)
let bounded_float ~range ok =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a number in %s" s range))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let scale_arg ?(default = 0.05) () =
  let doc =
    "Instance scale in (0,1]: net count scales linearly, region count \
     proportionally; chip dimensions and physical net lengths stay at the \
     published values."
  in
  Arg.(value
     & opt (bounded_float ~range:"(0, 1]" (fun v -> v > 0.0 && v <= 1.0)) default
     & info [ "s"; "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Random seed for placement, sensitivity and heuristics." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)

let rate_arg =
  let doc =
    "Sensitivity rate in [0,1] (fraction of net pairs sensitive to each \
     other)."
  in
  Arg.(value
     & opt (bounded_float ~range:"[0, 1]" (fun v -> v >= 0.0 && v <= 1.0)) 0.30
     & info [ "r"; "rate" ] ~docv:"R" ~doc)

let router_arg =
  let doc =
    "Global router: 'id' (the paper's iterative deletion) or 'nc' \
     (negotiated congestion)."
  in
  Arg.(value
     & opt (enum [ ("id", Flow.Iterative_deletion); ("nc", Flow.Negotiated) ])
         Flow.Iterative_deletion
     & info [ "router" ] ~docv:"ENGINE" ~doc)

let budgeting_arg =
  let doc =
    "Crosstalk budgeting: 'uniform' (the paper's Manhattan split) or \
     'route-aware'."
  in
  Arg.(value
     & opt (enum [ ("uniform", Flow.Uniform); ("route-aware", Flow.Route_aware) ])
         Flow.Uniform
     & info [ "budgeting" ] ~docv:"MODE" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget for the whole flow, in milliseconds (0 = none).  On \
     expiry each phase keeps its best-so-far result — routes stay \
     connected, accounting stays consistent — and the run completes \
     $(i,degraded) (exit 0, GSL0019 warning in the lint output) instead of \
     being killed."
  in
  Arg.(value & opt int 0 & info [ "deadline" ] ~docv:"MS" ~doc)

let audit_arg =
  let doc =
    "Run the pre-route static audit (Eda_analyze) before each flow.  \
     Provable infeasibilities are logged as GSL0024+/GSL0026 diagnostics \
     and the flow then proceeds anyway.  Use $(b,gsino_run audit) to fail \
     fast (exit 1) without routing."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel flow sections (Phase II panels, Phase \
     III noise scans, per-net candidate preparation).  1 runs fully \
     sequentially; any value yields identical routing results (see \
     DESIGN.md).  Defaults to the machine's recommended domain count, \
     capped at 8."
  in
  Arg.(value
     & opt int (Eda_exec.default_jobs ())
     & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let netlist_file_arg ~doc =
  Arg.(value & opt (some string) None & info [ "netlist" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Emit a live progress heartbeat on stderr (at most one line per \
     second): current flow phase, items done, elapsed time and — when \
     $(b,--deadline) is set — remaining budget."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let verbose_arg =
  let doc = "Verbose logging (level debug; overrides GSINO_LOG)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let quiet_arg =
  let doc = "Silence logging entirely (overrides GSINO_LOG and $(b,-v))." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let set_verbosity ~verbose ~quiet =
  if quiet then Log.set_level Log.Quiet
  else if verbose then Log.set_level (Log.Level Log.Debug)

(* ---------------- diagnostic printing ---------------- *)

let pretty_arg =
  let doc = "Human-readable diagnostics instead of machine one-liners." in
  Arg.(value & flag & info [ "pretty" ] ~doc)

(* How the lint and audit subcommands print their findings. *)
type diag_print = { pretty : bool; max_print : int; errors_only : bool }

let diag_print_term =
  let max_print_arg =
    let doc =
      "Print at most $(docv) diagnostics (0 = unlimited); with several \
       flows the limit applies to each."
    in
    Arg.(value & opt int 50 & info [ "max-print" ] ~docv:"N" ~doc)
  in
  let errors_only_arg =
    let doc = "Only print Error-severity diagnostics." in
    Arg.(value & flag & info [ "e"; "errors-only" ] ~doc)
  in
  Term.(
    const (fun pretty max_print errors_only -> { pretty; max_print; errors_only })
    $ pretty_arg $ max_print_arg $ errors_only_arg)

let print_diags out { pretty; max_print; errors_only } diags =
  let shown =
    List.filter (fun d -> (not errors_only) || d.Diag.severity = Diag.Error) diags
  in
  List.iteri
    (fun i d ->
      if max_print <= 0 || i < max_print then
        if pretty then Format.fprintf out "%a@." Diag.pp d
        else Format.fprintf out "%s@." (Diag.to_line d))
    shown;
  let n_shown = List.length shown in
  if max_print > 0 && n_shown > max_print then
    Format.fprintf out "... %d more diagnostics suppressed (--max-print)@."
      (n_shown - max_print)

(* ---------------- output sinks ---------------- *)

(* Each driver exposes a subset of the artifact sinks below.  One
   declarative spec per sink — flag name, doc — is the single source of
   truth: the cmdliner terms, the GSL0029 stdout arbitration and the
   with_obs flush order all consume it, so adding a sink (or a driver)
   cannot desynchronize the flag set from the checks. *)
module Sinks = struct
  type kind = Trace | Profile | Metrics | Journal | Report

  let all = [ Trace; Profile; Metrics; Journal; Report ]

  (* flag name + doc; '-' means stdout for every sink *)
  let spec = function
    | Trace ->
        ( "trace",
          "Record spans of the whole run and write a Chrome-trace JSON file \
           to $(docv) on exit (load it in chrome://tracing or \
           ui.perfetto.dev); '-' writes it to stdout and silences the \
           human-readable output." )
    | Profile ->
        ( "profile",
          "Fold the recorded spans into a per-span self-time profile \
           (gsino-profile-v1 JSON: calls, total, self, p95, max per span \
           name) and write it to $(docv) on exit.  Implies span recording \
           even without $(b,--trace).  '-' prints the human-readable top-10 \
           table to stdout instead and silences the normal output.  The \
           profile is also exported as $(b,prof.*) gauges in the \
           $(b,--metrics) artifact." )
    | Metrics ->
        ( "metrics",
          "Write the metrics registry (gsino-metrics-v1 JSON: per-phase \
           counters, gauges and histograms) to $(docv) on exit; '-' writes \
           it to stdout and silences the human-readable output." )
    | Journal ->
        ( "journal",
          "Record the attribution journal — dimension-keyed cost events \
           (per-net route churn, per-region reweights, per-panel SINO \
           time/shields/outcome with canonical panel signatures and cache \
           hit/miss/stored dispositions) — and write it as gsino-journal-v1 \
           JSONL to $(docv) on exit; '-' writes it to stdout and silences \
           the human-readable output.  Drill down with $(b,gsino_run explain)." )
    | Report ->
        ( "report",
          "Write a self-contained HTML run report for the GSINO flow \
           (congestion and shield heatmaps, noise-margin audit, phase \
           timings, metric charts) to $(docv); '-' prints the plain-text \
           report to stdout instead." )

  type t = {
    trace : string option;
    profile : string option;
    metrics : string option;
    journal : string option;
    report : string option;
  }

  let none =
    { trace = None; profile = None; metrics = None; journal = None; report = None }

  let get t = function
    | Trace -> t.trace
    | Profile -> t.profile
    | Metrics -> t.metrics
    | Journal -> t.journal
    | Report -> t.report

  (* every sink as (flag, value), spec order — what GSL0029 arbitrates *)
  let pairs t = List.map (fun k -> (fst (spec k), get t k)) all

  let arg kind =
    let name, doc = spec kind in
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

  (* [term kinds] — the sink flags this driver exposes; kinds not listed
     parse as absent so downstream plumbing is uniform *)
  let term kinds =
    let mk kind = if List.mem kind kinds then arg kind else Term.const None in
    Term.(
      const (fun trace profile metrics journal report ->
          { trace; profile; metrics; journal; report })
      $ mk Trace $ mk Profile $ mk Metrics $ mk Journal $ mk Report)
end

(* ---------------- panel cache ---------------- *)

(* The --panel-cache store directory {!with_panel_store} owns.  The
   cache never changes a byte of output (DESIGN §10), so the flag is a
   pure performance knob. *)
let panel_cache_term =
  let doc =
    "Persist the content-addressed SINO panel cache in $(docv): the \
     store is loaded once when the command starts and saved back once \
     when it ends, so later runs (any circuit, any driver) skip \
     re-solving identical panels.  Cached solutions are byte-identical \
     to fresh ones.  A missing or corrupt store is treated as empty, \
     never an error.  Without a store each flow memoizes in a cache of \
     its own."
  in
  let env =
    Cmd.Env.info "GSINO_PANEL_CACHE"
      ~doc:"Default directory for $(b,--panel-cache)."
  in
  Arg.(value & opt (some string) None & info [ "panel-cache" ] ~docv:"DIR" ~env ~doc)

(* [with_panel_store dir f] — the invocation's panel store: with a
   --panel-cache directory, [f] gets the store loaded from it once and
   the store is saved back once when [f] ends, however many flows [f]
   runs on it; without one, [f] gets [None] and each of the caller's
   flows memoizes in a cache of its own.  [f] raising still saves (a
   failure there is dropped so [f]'s error is the one reported): the
   solves made before the failure are kept, and every entry is verified
   on hit. *)
let with_panel_store dir f =
  match dir with
  | None -> f None
  | Some dir -> (
      let store = Eda_sino.Cache.load dir in
      match f (Some store) with
      | v ->
          Eda_sino.Cache.save store dir;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (try Eda_sino.Cache.save store dir with _ -> ());
          Printexc.raise_with_backtrace e bt)

(* ---------------- stdout arbitration ---------------- *)

(* "-" routes an artifact to stdout.  At most one artifact may claim
   stdout; when one does the human-readable output is silenced (a null
   formatter) so the artifact stays machine-parseable.  Two sinks both
   set to '-' would interleave JSON on one stream, so that is rejected
   up front as a coded usage error (GSL0029, exit 2) naming the
   offending flags.  Driven by the Sinks spec table, the check covers
   every sink pair of every driver uniformly. *)
let claim_stdout ~prog sinks =
  match List.filter (fun (_, v) -> v = Some "-") (Sinks.pairs sinks) with
  | [] -> false
  | [ _ ] -> true
  | clash ->
      let flags =
        String.concat " and " (List.map (fun (f, _) -> "--" ^ f) clash)
      in
      let d =
        Diag.makef ~code:29 Diag.Error
          "%s: %s each claim stdout ('-'); at most one artifact may write \
           to stdout per invocation"
          prog flags
      in
      prerr_endline (Diag.to_line d);
      exit exit_usage

let out_formatter ~claimed =
  if claimed then Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())
  else Format.std_formatter

(* ---------------- failure funnel ---------------- *)

(* The one rendering of a typed failure: its GSL code, a locus when the
   payload names one, and the class message. *)
let diag_of_error e =
  let locus =
    match e with
    | Error.Unreachable { net; _ } -> Some (Diag.Net net)
    | Error.Parse _ | Error.Singular_matrix _ | Error.Worker_crash _
    | Error.Nonfinite _ | Error.Frame _ | Error.Overload _ | Error.Io _ ->
        None
  in
  Diag.make ~code:(Error.gsl_code e) Diag.Error ?locus (Error.to_string e)

(* [exit] flushes stdout and re-raises when that fails.  Once stdout's
   reader is gone (a pager quit, `| head`), point fd 1 at /dev/null, so
   the failure being reported keeps its exit code. *)
let release_closed_stdout () =
  try flush stdout
  with Sys_error _ ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null

let report_error ~pretty e =
  let d = diag_of_error e in
  if pretty then Format.eprintf "%a@." Diag.pp d
  else prerr_endline (Diag.to_line d);
  release_closed_stdout ();
  exit (Error.exit_code e)

(* Install faults requested via GSINO_FAULTS before any worker domain
   exists; a malformed spec is a usage error. *)
let init_faults ~prog () =
  match Fault.init_from_env () with
  | Ok () ->
      if Fault.active () then
        Log.warn
          ~fields:[ ("sites", String.concat "," (Fault.sites ())) ]
          "fault injection active (%s)" Fault.env_var
  | Error msg ->
      Format.eprintf "%s: invalid %s: %s@." prog Fault.env_var msg;
      exit exit_usage

(* Catch everything a run can throw and leave through the documented
   exit codes: Error.classify keeps typed errors, folds known foreign
   exceptions in, and turns anything else into an internal worker-crash
   (GSL0022, exit 5). *)
let guard_exceptions ?(pretty = false) f =
  try f () with exn -> report_error ~pretty (Error.classify ~site:"cli" exn)

(* The funnel of a subcommand without artifact sinks: faults from
   GSINO_FAULTS, then [f] inside {!guard_exceptions}. *)
let guarded ~prog f =
  init_faults ~prog ();
  guard_exceptions f

(* ---------------- observability lifecycle ---------------- *)

(* [flush sink render] — write the artifact [render ()] to [sink] when
   the flag was given. *)
let flush sink render = Option.iter (fun s -> Artifact.write s (render s)) sink

(* Apply -v/-q, configure fault injection, enable tracing (--trace, or
   --profile which needs the same spans) and the --progress heartbeat
   when requested, then run [f] and flush the trace/profile/metrics
   artifacts, both inside the {!guard_exceptions} funnel: an unwritable
   sink fails like any other error (GSL0022, exit 5).  A run that fails
   first still flushes its artifacts for triage, and keeps its own exit
   code ([pretty] switches diagnostics to the human-readable renderer).
   Flush order matters: the profile folds the trace ring and publishes
   prof.* gauges, so it runs after the trace export and before the
   metrics snapshot.  The report sink stays a per-driver concern (it
   needs the flow result); everything else flushes here. *)
let with_obs ?(pretty = false) ?(prog = "gsino") ?(progress = false) ~sinks
    ~verbose ~quiet f =
  let { Sinks.trace; profile; metrics; journal; report = _ } = sinks in
  set_verbosity ~verbose ~quiet;
  init_faults ~prog ();
  (match (trace, profile) with
  | Some _, _ | _, Some _ -> Trace.enable ()
  | None, None -> ());
  (* on this domain, which coordinates the flows and records every event *)
  (match journal with Some _ -> Eda_obs.Journal.enable () | None -> ());
  if progress then Eda_obs.Progress.enable ();
  (* idempotent, and also registered with at_exit: report_error leaves
     through Stdlib.exit, which does not unwind, yet a failed run must
     still drop its artifacts.  There a sink that cannot be written is
     ignored, so the error already reported keeps its exit code. *)
  let flushed = ref false in
  let finish () =
    if not !flushed then begin
      flushed := true;
      Eda_obs.Progress.disable ();
      flush trace (fun _ -> Artifact.trace ());
      flush profile (fun sink ->
          let rows = Eda_obs.Prof.current () in
          (* publish prof.* gauges before the metrics snapshot, so the
             metrics artifact carries the profile series too *)
          Eda_obs.Prof.export_metrics rows;
          Artifact.profile ~sink rows);
      (* before the metrics snapshot: journal.events is already counted,
         and the journal write must not disturb the registry *)
      flush journal (fun _ -> Artifact.journal ());
      flush metrics (fun _ -> Artifact.metrics ())
    end
  in
  at_exit (fun () -> try finish () with _ -> ());
  guard_exceptions ~pretty (fun () ->
      let code = f () in
      finish ();
      code)

(* ---------------- netlist acquisition ---------------- *)

let profile_of_name name =
  match Generator.find_ibm name with
  | Some p -> p
  | None ->
      Format.eprintf "unknown circuit %s (expected ibm01..ibm06)@." name;
      exit exit_usage

let netlist_of tech ~circuit ~scale ~seed = function
  | Some file -> Eda_netlist.Io.load file
  | None ->
      Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale ~seed
        (profile_of_name circuit)
