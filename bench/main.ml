(* Benchmark harness: regenerates every table of the paper's evaluation
   plus the numeric claims of the modelling sections, the ablations, and
   the in-process guards of the panel cache, the audit and the journal.
   Performance is measured by bench/perf (see BENCHMARK.json).

   Environment knobs:
     GSINO_BENCH_SCALE    instance scale (default 0.05; paper size = 1.0)
     GSINO_BENCH_SEED     seed (default 7)
     GSINO_BENCH_CIRCUITS comma-separated subset (default: all six)

   Sections:
     table1 / table2 / table3   — the paper's Tables 1-3 (paper values in
                                  brackets)
     violations_zero            — §4's "no crosstalk violations" claim +
                                  Phase III statistics
     lsk_fidelity               — §2.2: LSK rank-correlates with SPICE
                                  noise; noise grows ~linearly with length
     formula3                   — §3.1: Formula (3) accuracy vs min-area
                                  SINO
     panel cache / audit /      — asserted guards: cache output identity
     journal                      and hit rate, audit cost vs routing,
                                  journal overhead and reconciliation *)
open Gsino
module Generator = Eda_netlist.Generator
module Keff = Eda_sino.Keff
module Estimate = Eda_sino.Estimate
module Table_builder = Eda_lsk.Table_builder
module Metrics = Eda_obs.Metrics

let getenv_f name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let getenv_i name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let scale = getenv_f "GSINO_BENCH_SCALE" 0.05
let seed = getenv_i "GSINO_BENCH_SEED" 7

let profiles =
  match Sys.getenv_opt "GSINO_BENCH_CIRCUITS" with
  | None -> Generator.all_ibm
  | Some s ->
      String.split_on_char ',' s
      |> List.map (fun name ->
             match Generator.find_ibm (String.trim name) with
             | Some p -> p
             | None -> failwith ("unknown circuit " ^ name))

let section name = Format.printf "@.=== %s ===@." name

(* ------------------------- Tables 1-3 ------------------------------ *)

(* Per-stage wall time accumulated by the Flow instrumentation — the
   same numbers a --metrics run exports, so the bench and the CLI can
   never disagree about where the time went. *)
let stage_seconds snap phase =
  match Metrics.find ~labels:[ ("phase", phase) ] snap "flow.phase_seconds" with
  | Some (Metrics.Gauge s) -> s
  | Some (Metrics.Counter _ | Metrics.Histogram _) | None -> 0.0

let print_stage_durations () =
  let snap = Metrics.snapshot () in
  let route = stage_seconds snap "route"
  and sino = stage_seconds snap "sino"
  and refine = stage_seconds snap "refine" in
  Format.printf
    "  stage seconds (Metrics snapshot, %d flow runs): route %.1f | sino %.1f \
     | refine %.1f | total %.1f@."
    (Metrics.counter_total snap "flow.runs")
    route sino refine
    (route +. sino +. refine)

let run_tables () =
  Format.printf
    "GSINO reproduction benchmark: scale %.2f, seed %d, %d circuits@." scale
    seed (List.length profiles);
  let suite = Report.run_suite ~profiles ~scale ~seed () in
  section "table1 (crosstalk-violating nets in ID+NO)";
  Format.printf "%a" Report.table1 suite;
  section "table2 (average wire length, ID+NO vs GSINO)";
  Format.printf "%a" Report.table2 suite;
  section "table3 (routing area, ID+NO vs iSINO vs GSINO)";
  Format.printf "%a" Report.table3 suite;
  section "violations_zero (GSINO/iSINO eliminate all violations)";
  Format.printf "%a" Report.violations_summary suite;
  section "phase timing per circuit";
  Format.printf "%a" Report.timing_summary suite;
  print_stage_durations ();
  suite

(* -------------------- V1: LSK model fidelity ------------------------ *)

let coupled_drive () =
  let e = Table_builder.default_electrical in
  {
    Eda_circuit.Coupled_line.rd = e.Table_builder.rd;
    cl = e.Table_builder.cl;
    vdd = e.Table_builder.vdd;
    t_delay = e.Table_builder.t_delay;
    t_rise = e.Table_builder.t_rise;
  }

let run_lsk_fidelity () =
  section "lsk_fidelity (LSK vs simulated noise, paper 2.2)";
  let keff = Keff.default in
  let pts =
    Table_builder.samples ~seed:11 ~configs:12
      ~lengths_m:[ 0.25e-3; 0.5e-3; 1e-3; 2e-3; 3e-3 ]
      ~keff Table_builder.default_electrical
  in
  let arr = Array.of_list pts in
  let n = Array.length arr in
  let conc = ref 0 and disc = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let li, vi = arr.(i) and lj, vj = arr.(j) in
      let dl = compare li lj and dv = compare vi vj in
      if dl <> 0 && dv <> 0 then if dl = dv then incr conc else incr disc
    done
  done;
  Format.printf
    "  %d simulated SINO configurations; Kendall tau(LSK, noise) = %.2f \
     (paper: 'high fidelity')@."
    n
    (float_of_int (!conc - !disc) /. float_of_int (max 1 (!conc + !disc)));
  let spec l =
    Table_builder.spec_of Table_builder.default_electrical ~keff ~length_m:l
  in
  let drive = coupled_drive () in
  Format.printf "  noise vs length, single adjacent aggressor:@.";
  List.iter
    (fun l ->
      let v =
        Eda_circuit.Coupled_line.worst_victim_noise (spec l) drive
          [| Eda_circuit.Coupled_line.Aggressor; Eda_circuit.Coupled_line.Victim |]
      in
      Format.printf "    %4.2f mm -> %.3f V@." (l *. 1e3) v)
    [ 0.25e-3; 0.5e-3; 1e-3; 2e-3; 3e-3 ]

(* -------------------- V2: Formula (3) accuracy ---------------------- *)

let run_formula3 () =
  section "formula3 (shield-count estimate vs min-area SINO, paper 3.1)";
  List.iter
    (fun kth ->
      let kth_of _ = kth in
      let c = Estimate.fit ~trials:200 ~seed:31 ~kth_of () in
      let q = Estimate.accuracy ~trials:120 ~seed:32 ~kth_of c in
      Format.printf
        "  Kth=%.2f: MAE %.2f shields; rel err (>=5 shields) %.1f%%; aggregate \
         %.1f%% (paper: <=10%%)@."
        kth q.Estimate.mean_abs_err
        (q.Estimate.rel_err_large *. 100.)
        (q.Estimate.aggregate_err *. 100.))
    [ 0.5; 0.8; 1.2 ]

(* ------------- V4: SINO delay claim (via [12], cited in §4) --------- *)

let run_delay_claim () =
  section "sino_delay (shielded wires are faster per unit length)";
  let keff = Keff.default in
  let drive = coupled_drive () in
  let delay len roles =
    match
      Eda_circuit.Coupled_line.rise_delay
        (Table_builder.spec_of Table_builder.default_electrical ~keff ~length_m:len)
        drive roles ~wire:1
    with
    | Some d -> d *. 1e12
    | None -> nan
  in
  let open Eda_circuit.Coupled_line in
  Format.printf
    "  50%%-Vdd delay (ps) of a rising wire: opposing vs shielded vs quiet \
     neighbours@.";
  List.iter
    (fun len ->
      Format.printf
        "    %4.2f mm: [O A O] %.1f | [S A S] %.1f | [Q A Q] %.1f@."
        (len *. 1e3)
        (delay len [| Opposing; Aggressor; Opposing |])
        (delay len [| Shield; Aggressor; Shield |])
        (delay len [| Quiet; Aggressor; Quiet |]))
    [ 0.5e-3; 1e-3; 2e-3 ];
  Format.printf
    "  (the paper argues GSINO's wire-length penalty is offset because SINO \
     wires@.   never see simultaneous opposing switching)@."

(* ---------------- Ablations: router and budgeting ------------------- *)

let run_ablations () =
  section "ablation: router (iterative deletion vs negotiated congestion)";
  let tech = Tech.default in
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:(Float.min scale 0.05)
      ~seed Generator.ibm01
  in
  let sens = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:0.30 in
  List.iter
    (fun (name, router) ->
      let config kind =
        { Flow.Config.default with Flow.Config.kind; router; seed }
      in
      let t0 = Sys.time () in
      let grid, base = Flow.prepare ~config:(config Flow.Id_no) tech nl in
      let prep_s = Sys.time () -. t0 in
      let idno = Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity:sens nl in
      let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity:sens nl in
      let _, _, a0 = idno.Flow.area and _, _, a1 = gsino.Flow.area in
      Format.printf
        "  %-22s routing %5.2fs | GSINO route %5.2fs | base WL %4.0fum | GSINO area \
         %+5.2f%% | resid %d@."
        name prep_s gsino.Flow.route_s idno.Flow.avg_wl_um
        (100. *. (a1 -. a0) /. a0)
        (Flow.violation_count gsino))
    [ ("iterative-deletion", Flow.Iterative_deletion); ("negotiated", Flow.Negotiated) ];
  section "ablation: budgeting (uniform Manhattan vs route-aware)";
  let grid, base = Flow.prepare tech nl in
  List.iter
    (fun (name, budgeting) ->
      let config kind =
        { Flow.Config.default with Flow.Config.kind; budgeting; seed }
      in
      let idno = Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity:sens nl in
      let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity:sens nl in
      let _, _, a0 = idno.Flow.area and _, _, a1 = gsino.Flow.area in
      let p1 =
        match gsino.Flow.refine_stats with
        | Some s -> s.Refine.pass1_nets_fixed
        | None -> 0
      in
      Format.printf
        "  %-12s GSINO shields %5d | area %+5.2f%% | phase3 pass1 fixes %3d | resid %d@."
        name gsino.Flow.shields
        (100. *. (a1 -. a0) /. a0)
        p1
        (Flow.violation_count gsino))
    [ ("uniform", Flow.Uniform); ("route-aware", Flow.Route_aware) ]

(* --- V5: counter-measure comparison (shield vs spacing vs diff) ----- *)

let run_countermeasures () =
  section "countermeasures (one extra track spent three ways, paper 1)";
  let keff = Keff.default in
  let drive = coupled_drive () in
  let spec =
    Table_builder.spec_of Table_builder.default_electrical ~keff ~length_m:1e-3
  in
  let open Eda_circuit.Coupled_line in
  let v_bare = worst_victim_noise spec drive [| Aggressor; Victim |] in
  let v_space = worst_victim_noise spec drive [| Aggressor; Quiet; Victim |] in
  let v_shield = worst_victim_noise spec drive [| Aggressor; Shield; Victim |] in
  let v_diff =
    differential_noise spec drive [| Aggressor; Victim; Victim |] ~plus:1 ~minus:2
  in
  Format.printf
    "  1 mm victim, adjacent aggressor:@.    \    unprotected           %.3f V@.    \    + spacer track        %.3f V@.    \    + shield track        %.3f V@.    \    + differential return %.3f V (receiver sees v+ - v-)@."
    v_bare v_space v_shield v_diff;
  Format.printf
    "  (shielding and differential signaling both beat plain spacing — the@.    \   §1 landscape SINO lives in; SINO automates the shield variant)@."

(* ------------ Ablation: SINO solver quality (greedy vs exact) ------- *)

(* The greedy heuristic Phases II/III run against the exact optimum, on
   every feasible panel of at most 10 nets in the final layouts of the
   suite's iSINO and GSINO flows.  Asserted per panel: the exact layout
   is feasible and lower bound <= exact <= flow. *)
let run_solver_ablation (suite : Report.suite) =
  section "ablation: min-area SINO solver (greedy heuristic vs exact optimum)";
  let module L = Eda_sino.Layout in
  List.iter
    (fun (run : Report.circuit_run) ->
      List.iter
        (fun (kind, (r : Flow.result)) ->
          let keff = Phase2.keff r.Flow.phase2 in
          let gaps = ref [] and flow_sh = ref 0 and secs = ref 0.0 in
          Phase2.iter r.Flow.phase2 (fun _ { Phase2.inst; layout; feasible; _ } ->
              if feasible && Eda_sino.Instance.size inst <= 10 then begin
                let t0 = Unix.gettimeofday () in
                let l = Eda_sino.Solver.exact ~params:keff inst in
                secs := !secs +. (Unix.gettimeofday () -. t0);
                let fs = L.num_shields layout and es = L.num_shields l in
                assert (L.feasible l keff && es <= fs);
                assert (Eda_sino.Bound.shield_lower_bound ~params:keff inst <= es);
                flow_sh := !flow_sh + fs;
                gaps := (fs - es) :: !gaps
              end);
          let count g = List.length (List.filter (( = ) g) !gaps) in
          Format.printf
            "  %-6s rate %.0f%% %-5s %4d panels: flow %4d shields, exact %4d | \
             gap:panels %s | oracle %.2fs@."
            run.Report.profile.Generator.name (run.Report.rate *. 100.) kind
            (List.length !gaps) !flow_sh
            (!flow_sh - List.fold_left ( + ) 0 !gaps)
            (List.sort_uniq compare !gaps
            |> List.map (fun g -> Printf.sprintf "%d:%d" g (count g))
            |> String.concat " ")
            !secs)
        [ ("iSINO", run.Report.isino); ("GSINO", run.Report.gsino) ])
    suite.Report.runs

(* ------------- panel cache: hit rate and output identity ------------- *)

(* The ROADMAP acceptance number: run the flow twice against one shared
   on-disk panel store and report the cumulative hit rate.  Run 1 is
   cold (only in-run duplicate panels hit); run 2 replays entirely from
   the store, so the two-run rate sits well above the 0.25 floor.  The
   solver derives every solution from panel content alone, so all three
   result summaries (no store, cold, warm) must be byte-identical — the
   cache is an accelerator, never an oracle. *)
let run_panel_cache () =
  section "panel cache (Eda_sino.Cache): hit rate over a shared store";
  let tech = Tech.default in
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um
      ~scale:(Float.max scale 0.05) ~seed Generator.ibm01
  in
  let sens = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:0.30 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsino_bench_cache.%d" (Unix.getpid ()))
  in
  let config = { Flow.Config.default with Flow.Config.seed } in
  let grid, _ = Flow.prepare ~config tech nl in
  (* each store run loads the store, solves against it and saves it
     back, as a front end with --panel-cache does; the no-store run
     memoizes in the flow's own cache *)
  let timed with_store =
    let t0 = Unix.gettimeofday () in
    let store = if with_store then Some (Eda_sino.Cache.load dir) else None in
    let r = Flow.run ~grid ?cache:store config tech ~sensitivity:sens nl in
    Option.iter (fun c -> Eda_sino.Cache.save c dir) store;
    ((r.Flow.shields, r.Flow.total_wl_um, r.Flow.violations, r.Flow.area),
     Unix.gettimeofday () -. t0)
  in
  let cache_counters () =
    let snap = Metrics.snapshot () in
    ( Metrics.counter_total snap "sino.cache_hits",
      Metrics.counter_total snap "sino.cache_misses" )
  in
  let none, t_none = timed false in
  let h0, m0 = cache_counters () in
  let cold, t_cold = timed true in
  let warm, t_warm = timed true in
  let h1, m1 = cache_counters () in
  let hits = h1 - h0 and misses = m1 - m0 in
  let rate =
    if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
    else 0.0
  in
  let identical = none = cold && cold = warm in
  Format.printf
    "  two runs, one store: %d hits / %d misses | hit rate %.2f (floor 0.25)@."
    hits misses rate;
  Format.printf
    "  flow seconds: %.2f no store | %.2f cold store | %.2f warm store | \
     results %s@."
    t_none t_cold t_warm
    (if identical then "byte-identical" else "DIFFER (cache corrupts output!)");
  (try
     Sys.remove (Filename.concat dir "panels.v2");
     Sys.rmdir dir
   with Sys_error _ -> ());
  assert identical;
  assert (rate >= 0.25)

(* ------------------------- audit cost ------------------------------- *)

(* The audit against its own cost at two scales of one circuit (4x the
   nets), so the yardstick does not move with the router's speed.  Its
   sensitivity-graph pass screens every net pair, so its cost may grow
   with the square of the net count; every other pass walks nets,
   regions or cuts once, so theirs may grow linearly.  Each group gets
   2x over its scaling law: a super-linear pass among the linear ones,
   or a super-quadratic graph pass, trips it. *)
let run_audit_cost () =
  let module Trace = Eda_obs.Trace in
  let module Prof = Eda_obs.Prof in
  section "audit (Eda_analyze): static pre-pass cost at two scales";
  let tech = Tech.default in
  let acfg = Flow.analyze_config tech in
  let sens = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:0.30 in
  (* best of five per pass group: the linear passes take well under a
     millisecond, below single-run clock noise *)
  let measure s =
    let nl =
      Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:s ~seed
        Generator.ibm01
    in
    let grid = Tech.grid_for tech nl in
    let graph = ref infinity and rest = ref infinity in
    for _ = 1 to 5 do
      Trace.enable ();
      ignore (Eda_analyze.Analyze.run acfg ~grid ~sensitivity:sens nl);
      let total name =
        List.fold_left
          (fun acc r -> if r.Prof.name = name then acc +. r.Prof.total_us else acc)
          0.0 (Prof.current ())
      in
      let g = total "analyze.graph" in
      graph := Float.min !graph (g /. 1e3);
      rest := Float.min !rest ((total "analyze.run" -. g) /. 1e3);
      Trace.disable ()
    done;
    (Eda_netlist.Netlist.num_nets nl, !graph, !rest)
  in
  let s1 = Float.max scale 0.05 in
  let n1, graph1, rest1 = measure s1 in
  let n2, graph2, rest2 = measure (4.0 *. s1) in
  let r = float_of_int n2 /. float_of_int n1 in
  Format.printf
    "  ibm01 at scale %.3g: %d nets, graph pass %.2f ms, other passes %.3f ms@." s1 n1
    graph1 rest1;
  Format.printf
    "  ibm01 at scale %.3g: %d nets, graph pass %.2f ms, other passes %.3f ms@."
    (4.0 *. s1) n2 graph2 rest2;
  Format.printf
    "  growth for %.2fx the nets: graph pass %.1fx (budget %.1fx), other \
     passes %.1fx (budget %.1fx)@."
    r (graph2 /. graph1) (2.0 *. r *. r) (rest2 /. rest1) (2.0 *. r);
  assert (graph2 <= 2.0 *. r *. r *. graph1);
  assert (rest2 <= 2.0 *. r *. rest1)

(* ------------------------ attribution journal ----------------------- *)

let run_journal_overhead () =
  let module Journal = Eda_obs.Journal in
  let module Trace = Eda_obs.Trace in
  let module Prof = Eda_obs.Prof in
  section
    "journal (Eda_obs.Journal): attribution overhead, reconciliation, \
     panel recurrence";
  let tech = Tech.default in
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um
      ~scale:(Float.max scale 0.05) ~seed Generator.ibm01
  in
  let sens = Eda_netlist.Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:0.30 in
  let config = { Flow.Config.default with Flow.Config.seed } in
  let grid, _ = Flow.prepare ~config tech nl in
  let run_once () =
    let t0 = Unix.gettimeofday () in
    ignore (Flow.run ~grid config tech ~sensitivity:sens nl);
    Unix.gettimeofday () -. t0
  in
  (* warm-up, then interleaved best-of-three per mode: the overhead
     budget is percent-level, below single-run clock noise, and heap
     growth across iterations would otherwise bias whichever mode runs
     last *)
  ignore (run_once ());
  let t_off = ref infinity and t_on = ref infinity in
  for _ = 1 to 3 do
    Journal.disable ();
    t_off := Float.min !t_off (run_once ());
    Journal.enable ();
    Journal.clear ();
    t_on := Float.min !t_on (run_once ());
    Journal.clear ()
  done;
  let t_off = !t_off and t_on = !t_on in
  let overhead_pct = 100.0 *. ((t_on -. t_off) /. t_off) in
  Format.printf
    "  flow %.2fs journal off | %.2fs on | overhead %+.2f%% (budget 3%%)@."
    t_off t_on overhead_pct;
  (* reconciliation: the journal's per-panel attribution must add up to
     the profiler's phase2.panels span — same work, two instruments *)
  Journal.enable ();
  Journal.clear ();
  Trace.enable ();
  ignore (run_once ());
  let evs = Journal.events () in
  let span_us =
    match
      List.find_opt (fun p -> p.Prof.name = "phase2.panels") (Prof.current ())
    with
    | Some p -> p.Prof.total_us
    | None -> 0.0
  in
  Trace.disable ();
  let panel_us =
    List.fold_left
      (fun acc (e : Journal.event) ->
        if e.Journal.ev = "panel.solve" then
          acc +. Option.value (Journal.data_value e "time_us") ~default:0.0
        else acc)
      0.0 evs
  in
  let reconcile_pct =
    if span_us > 0.0 then 100.0 *. Float.abs (span_us -. panel_us) /. span_us
    else 0.0
  in
  Format.printf
    "  phase2.panels span %.1f ms | sum of panel.solve events %.1f ms | gap \
     %.2f%% (budget 5%%)@."
    (span_us /. 1e3) (panel_us /. 1e3) reconcile_pct;
  (* duplicate-panel recurrence from the journal's view: the share of
     panel events carrying an already-seen signature — the work the
     Eda_sino.Cache absorbs (its realized hit rate is measured directly
     in the panel_cache section above) *)
  let panel_evs =
    List.filter
      (fun (e : Journal.event) ->
        e.Journal.ev = "panel.solve" || e.Journal.ev = "panel.resolve")
      evs
  in
  let rows = Journal.Agg.by_dim "sig" panel_evs in
  let total = List.length panel_evs and uniq = List.length rows in
  Format.printf
    "  panel signatures: %d events, %d unique, %d duplicates (%.1f%% \
     cacheable)@."
    total uniq (total - uniq)
    (if total > 0 then
       100.0 *. float_of_int (total - uniq) /. float_of_int total
     else 0.0);
  let snap = Metrics.snapshot () in
  Format.printf
    "  process recurrence counters: sino.panel_sig_unique %d | \
     sino.panel_sig_dups %d@."
    (Metrics.counter_total snap "sino.panel_sig_unique")
    (Metrics.counter_total snap "sino.panel_sig_dups");
  Journal.disable ();
  (* attribution must stay a rounding error on the flow it explains *)
  assert (overhead_pct < 3.0);
  assert (span_us <= 0.0 || reconcile_pct < 5.0)

let () =
  run_solver_ablation (run_tables ());
  run_lsk_fidelity ();
  run_formula3 ();
  run_delay_claim ();
  run_countermeasures ();
  run_ablations ();
  run_panel_cache ();
  run_audit_cost ();
  run_journal_overhead ();
  Format.printf "@.done.@."
