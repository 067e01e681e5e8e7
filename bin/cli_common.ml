(* cli_common — the front end shared by the two command-line drivers,
   gsino_run and gsino_serve: the flag groups, each one cmdliner term,
   the failure funnel, and the observability lifecycle and panel store
   around a run.

   Every subcommand exposes the same conventions:
   --trace/--metrics/--profile/--journal/--report accept '-' for stdout,
   at most one sink may claim it (two claims are a GSL0029 usage error),
   and a claimed stdout silences the human-readable output so the
   artifact stays machine-parseable.  Exit codes are uniform across the drivers and
   mirror Eda_guard.Error.exit_code: 0 success (possibly degraded),
   1 findings/regression breach, 2 usage or input error, 5 internal
   error (singular matrix, worker crash, non-finite value), 6 server
   overloaded (serve backpressure), 7 peer/stream i/o failure.  A
   command returns its exit code through one funnel ({!guarded}, via
   Error.classify), which prints any failure as one coded GSL
   diagnostic — no uncaught exception reaches the user — and only the
   drivers' [main]s exit. *)
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

(* [usage fmt ...] raises the command line's refusal: GSL0029, exit 2. *)
let usage fmt = Printf.ksprintf (fun msg -> Error.raise_ (Error.Usage { msg })) fmt

(* A closed stdout/stderr/socket must surface as a typed Io error (exit
   7) through the funnel below, not kill the process: without this a
   pager quitting mid-report delivers SIGPIPE and the run dies with no
   diagnostic.  Unix writes then fail with EPIPE (mapped by
   Error.of_exn); stdio channels raise the equivalent Sys_error. *)
let () =
  if Sys.os_type = "Unix" then
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

(* ---------------- shared flags ---------------- *)

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

(* The flow kinds' command-line spellings. *)
let kind_names = [ ("id-no", Flow.Id_no); ("isino", Flow.Isino); ("gsino", Flow.Gsino) ]

let pretty_arg =
  let doc = "Human-readable diagnostics instead of machine one-liners." in
  Arg.(value & flag & info [ "pretty" ] ~doc)

(* ---------------- the netlist source ---------------- *)

(* Where a command's netlist comes from: a generated benchmark circuit
   ([circuit] at [scale], placed with [seed]), or a gsino-netlist file. *)
type source = { circuit : string; scale : float; seed : int; file : string option }

(* [source_term ?netlist ~scale ()] — -c/-s/--seed with the command's
   default [scale], and --netlist with the doc [netlist] when the
   command reads files. *)
let source_term ?netlist ~scale () =
  let circuit_arg =
    let doc = "Benchmark circuit (ibm01..ibm06)." in
    Arg.(value & opt string "ibm01" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)
  in
  let file_arg =
    match netlist with
    | None -> Term.const None
    | Some doc ->
        Arg.(value & opt (some string) None & info [ "netlist" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun circuit scale seed file -> { circuit; scale; seed; file })
    $ circuit_arg $ scale_arg ~default:scale () $ seed_arg $ file_arg)

let profile_of_name name =
  match Generator.find_ibm name with
  | Some p -> p
  | None -> usage "unknown circuit %s (expected ibm01..ibm06)" name

let netlist tech src =
  match src.file with
  | Some file -> Eda_netlist.Io.load file
  | None ->
      Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:src.scale
        ~seed:src.seed (profile_of_name src.circuit)

(* ---------------- the flow request ---------------- *)

type flow_flag = Seed | Router | Budgeting | Jobs | Deadline | Audit

(* [flow_term flags] — the Flow.Config.t a command's flags request:
   each flag in [flags] sets its field, the others keep
   Flow.Config.default's.  --seed is the netlist source's flag too, so
   one seed places the netlist and seeds the flow. *)
let flow_term flags =
  let router_arg =
    let doc =
      "Global router: 'id' (the paper's iterative deletion) or 'nc' \
       (negotiated congestion)."
    in
    Arg.(value
       & opt (enum Flow.routers) Flow.Iterative_deletion
       & info [ "router" ] ~docv:"ENGINE" ~doc)
  in
  let budgeting_arg =
    let doc =
      "Crosstalk budgeting: 'uniform' (the paper's Manhattan split) or \
       'route-aware'."
    in
    Arg.(value
       & opt (enum Flow.budgetings) Flow.Uniform
       & info [ "budgeting" ] ~docv:"MODE" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the parallel flow sections (Phase II panels, \
       Phase III noise scans, per-net candidate preparation).  1 runs \
       fully sequentially; any value yields identical routing results (see \
       DESIGN.md).  Defaults to the machine's recommended domain count, \
       capped at 8."
    in
    Arg.(value
       & opt int (Eda_exec.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Wall-clock budget for the whole flow, in milliseconds (0 = none).  \
       On expiry each phase keeps its best-so-far result — routes stay \
       connected, accounting stays consistent — and the run completes \
       $(i,degraded) (exit 0, GSL0019 warning in the lint output) instead \
       of being killed."
    in
    Arg.(value & opt int 0 & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let audit_arg =
    let doc =
      "Run the pre-route static audit (Eda_analyze) before each flow.  \
       Provable infeasibilities are logged as GSL0024+/GSL0026 diagnostics \
       and the flow then proceeds anyway.  Use $(b,gsino_run audit) to \
       fail fast (exit 1) without routing."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let d = Flow.Config.default in
  let mk flag arg default = if List.mem flag flags then arg else Term.const default in
  Term.(
    const (fun seed router budgeting jobs deadline_ms audit ->
        { d with Flow.Config.seed; router; budgeting; jobs; deadline_ms; audit })
    $ mk Seed seed_arg d.seed
    $ mk Router router_arg d.router
    $ mk Budgeting budgeting_arg d.budgeting
    $ mk Jobs jobs_arg d.jobs
    $ mk Deadline deadline_arg d.deadline_ms
    $ mk Audit audit_arg d.audit)

(* ---------------- diagnostic printing ---------------- *)

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

  (* the sinks given, each with its file, in spec order *)
  type t = (kind * string) list

  let get (t : t) kind = List.assoc_opt kind t

  (* [term kinds] — the sink flags this driver exposes, read as the
     sinks given *)
  let term kinds =
    List.fold_right
      (fun kind rest ->
        if not (List.mem kind kinds) then rest
        else
          let name, doc = spec kind in
          let file =
            Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
          in
          let add file rest =
            match file with Some f -> (kind, f) :: rest | None -> rest
          in
          Term.(const add $ file $ rest))
      all (Term.const [])
end

(* ---------------- the observability set ---------------- *)

(* What a command records of itself: its artifact sinks, the --progress
   heartbeat, and the log level (-v/-q). *)
type obs = { sinks : Sinks.t; progress : bool; verbose : bool; quiet : bool }

(* the set of a command without these flags *)
let no_obs = { sinks = []; progress = false; verbose = false; quiet = false }

(* [obs_term ?progress kinds] — the sink flags [kinds], --progress when
   [progress], and -v/-q. *)
let obs_term ?(progress = false) kinds =
  let progress_arg =
    let doc =
      "Emit a live progress heartbeat on stderr (at most one line per \
       second): current flow phase, items done, elapsed time and — when \
       $(b,--deadline) is set — remaining budget."
    in
    if progress then Arg.(value & flag & info [ "progress" ] ~doc)
    else Term.const false
  in
  let verbose_arg =
    let doc = "Verbose logging (level debug; overrides GSINO_LOG)." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let quiet_arg =
    let doc = "Silence logging entirely (overrides GSINO_LOG and $(b,-v))." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Term.(
    const (fun sinks progress verbose quiet -> { sinks; progress; verbose; quiet })
    $ Sinks.term kinds $ progress_arg $ verbose_arg $ quiet_arg)

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

(* [f ()], then [finish ()], also when [f] raises; a failure of [finish]
   then is dropped, so [f]'s error is the one reported. *)
let finishing f finish =
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try finish () with _ -> ());
      Printexc.raise_with_backtrace e bt

(* [with_panel_store dir f] — the invocation's panel store: with a
   --panel-cache directory, [f] gets the store loaded from it once and
   the store is saved back once when [f] ends, however many flows [f]
   runs on it; without one, [f] gets [None] and each of the caller's
   flows memoizes in a cache of its own.  [f] raising still saves: the
   solves made before the failure are kept, and every entry is verified
   on hit. *)
let with_panel_store dir f =
  match dir with
  | None -> f None
  | Some dir ->
      let store = Eda_sino.Cache.load dir in
      finishing (fun () -> f (Some store)) (fun () -> Eda_sino.Cache.save store dir)

(* ---------------- the failure funnel ---------------- *)

(* "-" routes an artifact to stdout.  At most one artifact may claim
   stdout; when one does the human-readable output is silenced (a null
   formatter) so the artifact stays machine-parseable.  Two sinks both
   set to '-' would interleave JSON on one stream, so that is a usage
   error naming the offending flags.  Driven by the Sinks spec table,
   the check covers every sink pair of every driver uniformly. *)
let out_formatter ~prog sinks =
  match List.filter (fun (_, file) -> file = "-") sinks with
  | [] -> Format.std_formatter
  | [ _ ] -> Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())
  | clash ->
      usage
        "%s: %s each claim stdout ('-'); at most one artifact may write to \
         stdout per invocation"
        prog
        (String.concat " and "
           (List.map (fun (kind, _) -> "--" ^ fst (Sinks.spec kind)) clash))

(* Install faults requested via GSINO_FAULTS before any worker domain
   exists; a malformed spec is a usage error. *)
let init_faults ~prog () =
  match Fault.init_from_env () with
  | Ok () ->
      if Fault.active () then
        Log.warn
          ~fields:[ ("sites", String.concat "," (Fault.sites ())) ]
          "fault injection active (%s)" Fault.env_var
  | Error msg -> usage "%s: invalid %s: %s" prog Fault.env_var msg

(* Once stdout's reader is gone (a pager quit, `| head`), point fd 1 at
   /dev/null: the exit flushes stdout, and a failing flush would replace
   the exit code of the failure being reported. *)
let release_closed_stdout () =
  try flush stdout
  with Sys_error _ ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null

(* The one printer of a failure: one coded line on stderr, or the
   human-readable rendering with [pretty]. *)
let print_failure ~pretty d =
  release_closed_stdout ();
  if pretty then Format.eprintf "%a@." Diag.pp d
  else prerr_endline (Diag.to_line d)

(* The one rendering of a typed failure: its GSL code, a locus when the
   payload names one, and the class message. *)
let diag_of_error e =
  let locus =
    match e with
    | Error.Unreachable { net; _ } -> Some (Diag.Net net)
    | Error.Parse _ | Error.Singular_matrix _ | Error.Worker_crash _
    | Error.Nonfinite _ | Error.Frame _ | Error.Overload _ | Error.Io _
    | Error.Usage _ ->
        None
  in
  Diag.make ~code:(Error.gsl_code e) Diag.Error ?locus (Error.to_string e)

(* [guarded ?pretty ?faults ?obs ~prog f] — the funnel every command
   returns its exit code through.  It applies -v/-q, arbitrates stdout
   between [obs]'s sinks, installs GSINO_FAULTS when [faults], and
   returns [f out], [out] being the human-readable output.  Anything
   raised on the way — a usage error before any work starts, or a
   failure of [f] — is folded in by Error.classify (a foreign exception
   becomes an internal worker-crash, GSL0022), printed as one coded line
   and answered with its exit code. *)
let guarded ?(pretty = false) ?(faults = false) ?(obs = no_obs) ~prog f =
  try
    if obs.quiet then Log.set_level Log.Quiet
    else if obs.verbose then Log.set_level (Log.Level Log.Debug);
    let out = out_formatter ~prog obs.sinks in
    if faults then init_faults ~prog ();
    f out
  with exn ->
    let e = Error.classify ~site:"cli" exn in
    print_failure ~pretty (diag_of_error e);
    Error.exit_code e

(* ---------------- observability lifecycle ---------------- *)

(* [flush sink render] — write the artifact [render ()] to [sink] when
   the flag was given. *)
let flush sink render = Option.iter (fun s -> Artifact.write s (render s)) sink

(* {!guarded} with fault injection, around a run that records itself:
   enable tracing (--trace, or --profile which needs the same spans),
   the journal and the --progress heartbeat as [obs] asks, run [f], and
   flush the trace/profile/journal/metrics artifacts when [f] returns or
   raises.  A flush that fails after a clean run fails it like any other
   error (GSL0022, exit 5); after a failed run it is dropped, and the
   run keeps its own exit code.  Flush order matters: the profile folds
   the trace ring and publishes prof.* gauges, so it runs after the
   trace export and before the metrics snapshot.  The report sink stays
   a per-driver concern (it needs the flow result). *)
let with_obs ?pretty ~prog obs f =
  guarded ?pretty ~faults:true ~obs ~prog @@ fun out ->
  let sink = Sinks.get obs.sinks in
  let trace = sink Trace and profile = sink Profile and journal = sink Journal in
  if trace <> None || profile <> None then Trace.enable ();
  (* on this domain, which coordinates the flows and records every event *)
  if journal <> None then Eda_obs.Journal.enable ();
  if obs.progress then Eda_obs.Progress.enable ();
  finishing
    (fun () -> f out)
    (fun () ->
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
      flush (sink Metrics) (fun _ -> Artifact.metrics ()))
