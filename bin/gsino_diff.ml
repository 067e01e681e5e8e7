(* gsino_diff — compare two gsino-metrics-v1 snapshots.

   Aligns the series of BASELINE and CURRENT by (name, labels), prints
   the added/removed/changed series with absolute and relative deltas,
   and — when --policy is given — gates the guarded metrics against
   per-metric tolerances.  Exit status: 0 when within policy (or no
   policy), 1 on a policy breach, 2 on unreadable inputs. *)
open Cmdliner
module Metrics = Eda_obs.Metrics
module Diff = Eda_obs.Diff
module C = Cli_common

(* plain strings, not Arg.file, and optional at the cmdliner layer: a
   missing or unreadable snapshot must leave through our documented
   exit 2 with a readable message, not cmdliner's 124.  Their presence
   is enforced in [run]. *)
let baseline_arg =
  let doc = "Baseline metrics snapshot (gsino-metrics-v1 JSON)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)

let current_arg =
  let doc = "Current metrics snapshot (gsino-metrics-v1 JSON)." in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)

let policy_arg =
  let doc =
    "Regression policy (gsino-diff-policy-v1 JSON).  Each tolerance names \
     a guarded metric, the drift direction it guards, and the allowed \
     max_abs/max_rel drift; any breach makes the exit status 1."
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"FILE" ~doc)

let all_arg =
  let doc = "Print unchanged series too, not just the drifted ones." in
  Arg.(value & flag & info [ "a"; "all" ] ~doc)

let load path =
  match Metrics.read_json path with
  | Ok s -> s
  | Error msg ->
      Format.eprintf "gsino_diff: %s@." msg;
      exit C.exit_usage

let count f entries = List.length (List.filter f entries)

let is_added e =
  match e.Diff.change with
  | Diff.Added _ -> true
  | Diff.Removed _ | Diff.Changed _ | Diff.Unchanged _ -> false

let is_removed e =
  match e.Diff.change with
  | Diff.Removed _ -> true
  | Diff.Added _ | Diff.Changed _ | Diff.Unchanged _ -> false

let is_changed e =
  match e.Diff.change with
  | Diff.Changed _ -> true
  | Diff.Added _ | Diff.Removed _ | Diff.Unchanged _ -> false

let run policy all verbose quiet baseline current =
  C.set_verbosity ~verbose ~quiet;
  C.guard_exceptions @@ fun () ->
  let pol =
    match policy with
    | None -> None
    | Some file -> (
        match Diff.load_policy file with
        | Error msg ->
            Format.eprintf "gsino_diff: %s@." msg;
            exit C.exit_usage
        | Ok p -> Some p)
  in
  let baseline, current =
    match (baseline, current) with
    | Some baseline, Some current -> (baseline, current)
    | None, _ | _, None ->
        Format.eprintf
          "gsino_diff: BASELINE and CURRENT snapshots are required@.";
        exit C.exit_usage
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
    Format.printf "%d series: %d added, %d removed, %d changed@."
      (List.length entries) (count is_added entries) (count is_removed entries)
      (count is_changed entries)
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

let cmd =
  let doc = "Diff two gsino-metrics-v1 snapshots and gate on a policy" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compares the metric series of two exported snapshots (from \
         $(b,gsino_run --metrics)).  Without $(b,--policy) this is purely \
         informational.  With a policy, guarded metrics may drift only in \
         the allowed direction and within the per-metric max_abs/max_rel \
         tolerances; an added, removed or over-tolerance guarded series \
         is a breach.";
      `P
        "Exits 0 when within policy, 1 on a breach, 2 when a snapshot or \
         the policy cannot be read.";
    ]
  in
  Cmd.v
    (Cmd.info "gsino_diff" ~version:"1.0.0" ~doc ~man)
    Term.(const run $ policy_arg $ all_arg $ C.verbose_arg $ C.quiet_arg
          $ baseline_arg $ current_arg)

let () = exit (Cmd.eval' cmd)
