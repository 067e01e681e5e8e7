module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace
module Log = Eda_obs.Log
module Gcstat = Eda_obs.Gcstat
module Progress = Eda_obs.Progress
module Journal = Eda_obs.Journal

(* Every timed flow phase goes through this: one span for the profiler,
   one cumulative flow.phase_seconds sample, one gc.* delta set, one
   progress heartbeat at entry.  Keeping the four probes in a single
   combinator keeps the phase list in [run] readable and guarantees no
   phase is missing a probe. *)
let timed_phase name f =
  Progress.phase name;
  let v, s =
    Trace.timed_span ("phase:" ^ name) (fun () -> Gcstat.phase name f)
  in
  Metrics.accum (Metrics.gauge ~labels:[ ("phase", name) ] "flow.phase_seconds") s;
  (v, s)

type kind = Id_no | Isino | Gsino

let kind_name = function Id_no -> "ID+NO" | Isino -> "iSINO" | Gsino -> "GSINO"

type router = Iterative_deletion | Negotiated

let routers = [ ("id", Iterative_deletion); ("nc", Negotiated) ]

type budgeting = Uniform | Route_aware

let budgetings = [ ("uniform", Uniform); ("route-aware", Route_aware) ]

module Config = struct
  type t = {
    kind : kind;
    router : router;
    budgeting : budgeting;
    jobs : int;
    seed : int;
    deadline_ms : int;
    audit : bool;
  }

  let default =
    {
      kind = Gsino;
      router = Iterative_deletion;
      budgeting = Uniform;
      jobs = 1;
      seed = 7;
      deadline_ms = 0;
      audit = false;
    }
end

type result = {
  kind : kind;
  netlist : Netlist.t;
  grid : Grid.t;
  sensitivity : Sensitivity.t;
  routes : Route.t array;
  budget : Budget.t;
  phase2 : Phase2.t;
  usage : Usage.t;
  refine_stats : Refine.stats option;
  violations : (int * float) list;
  avg_wl_um : float;
  total_wl_um : float;
  area : float * float * float;
  shields : int;
  route_s : float;
  sino_s : float;
  refine_s : float;
  deadline_hits : string list;
}

(* flow.phase_seconds (inside timed_phase) is cumulative wall-clock per
   phase across every run of the process, so a suite/bench sees one
   per-phase total in the metrics snapshot *)
let m_runs = Metrics.counter "flow.runs"

let analyze_config tech =
  {
    Eda_analyze.Analyze.keff = tech.Tech.keff;
    lsk = Tech.lsk_model tech;
    noise_bound_v = tech.Tech.noise_bound_v;
    estimate = Tech.estimate_coeffs ();
  }

(* Pre-route audit: log what the static analyzer can prove infeasible,
   then proceed — the SINO fallbacks and the checker cope downstream.
   Failing fast before routing is gsino_run audit's job. *)
let audit_prepass tech grid ~sensitivity netlist =
  let audit, _audit_s =
    timed_phase "audit" (fun () ->
        Eda_analyze.Analyze.run (analyze_config tech) ~grid ~sensitivity netlist)
  in
  let module Analyze = Eda_analyze.Analyze in
  let module Diag = Eda_check.Diag in
  if Analyze.has_errors audit then begin
    let errors =
      List.filter (fun d -> d.Diag.severity = Diag.Error) audit.Analyze.findings
    in
    List.iter
      (fun d ->
        Log.warn
          ~fields:[ ("circuit", netlist.Netlist.name) ]
          "audit: %s" (Diag.to_line d))
      errors;
    Log.warn
      ~fields:[ ("circuit", netlist.Netlist.name) ]
      "audit proved %d infeasibilities; continuing degraded"
      (List.length errors)
  end

let route_with ?pool ?deadline router tech grid netlist shield_model =
  match router with
  | Iterative_deletion ->
      Id_router.route ~grid ~netlist
        ~weights:
          {
            Id_router.alpha = tech.Tech.alpha;
            beta = tech.Tech.beta;
            gamma = tech.Tech.gamma;
          }
        ~shield_model ?deadline ?pool ()
  | Negotiated -> Nc_router.route ~grid ~netlist ~shield_model ?deadline ()

let base_routes ?(router = Iterative_deletion) ?pool ?deadline tech grid netlist
    =
  route_with ?pool ?deadline router tech grid netlist Id_router.No_shields

let demand_quantile usage grid q dir =
  (* Stats.quantile_int returns 0 on an empty sample, so a zero-region
     grid yields capacity 0 instead of indexing a.(-1). *)
  Eda_util.Stats.quantile_int
    (Array.init (Grid.num_regions grid) (fun r -> Usage.nns usage r dir))
    q

(* A caller-supplied pool (the serve daemon's per-worker pool) outlives
   the call; otherwise a [config.jobs]-domain pool lives for its
   duration. *)
let with_pool_opt ~jobs ext f =
  match ext with Some pool -> f pool | None -> Eda_exec.with_pool ~jobs f

let prepare ?(config = Config.default) ?pool tech netlist =
  Trace.span_args "flow:prepare"
    [ ("circuit", netlist.Netlist.name) ]
  @@ fun () ->
  let { Config.router; jobs; _ } = config in
  with_pool_opt ~jobs pool @@ fun pool ->
  (* Pass 1: route with loose auto-capacities to observe regional demand.
     Pass 2: clamp the capacities near the top of that demand and
     re-route, so the conventional router is balancing right at the edge
     of capacity — the regime the paper's circuits are in (ID+NO fits the
     placement; every further track, i.e. every shield, risks expanding
     it). *)
  let grid0 = Tech.grid_for tech netlist in
  let base0 = base_routes ~router ~pool tech grid0 netlist in
  let usage0 =
    Usage.of_routes grid0 ~gcell_um:netlist.Netlist.gcell_um (Array.to_list base0)
  in
  let cap dir = max 4 (demand_quantile usage0 grid0 0.90 dir) in
  let grid =
    Grid.make ~w:(Grid.width grid0) ~h:(Grid.height grid0)
      ~hcap:(cap Eda_grid.Dir.H) ~vcap:(cap Eda_grid.Dir.V)
  in
  let base = base_routes ~router ~pool tech grid netlist in
  (grid, base)

(* A preparation recorded once and replayed by every flow that reads it.
   Its metrics are recorded in a registry of their own and its events in
   a journal of their own, so replaying them into a request's registry
   and journal leaves both as a preparation there would have.  Nothing
   writes [grid] or [base] after [prepare] returns, so domains share a
   prepared value read-only. *)
type prepared = {
  router : router;
  grid : Grid.t;
  base : Route.t array;
  metrics : Metrics.snapshot;
  events : Journal.event list;
}

let record_prepare ?(config = Config.default) ?pool tech netlist =
  let ((grid, base), events), metrics =
    Metrics.record (fun () ->
        Journal.capture (fun () -> prepare ~config ?pool tech netlist))
  in
  { router = config.Config.router; grid; base; metrics; events }

(* The preparation's series and events, re-recorded on this domain
   before the flows record anything, so per-key order is a fresh
   preparation's.  The span stays, with no router span under it: the
   trace says what ran. *)
let replay_prepare (p : prepared) netlist =
  Trace.span_args "flow:prepare"
    [ ("circuit", netlist.Netlist.name) ]
    (fun () ->
      Metrics.replay p.metrics;
      Journal.replay p.events);
  (p.grid, p.base)

let run ?grid ?base ?pool ?cache ?deadline config tech ~sensitivity netlist =
  let { Config.kind; router; budgeting; jobs; seed; deadline_ms; audit } =
    config
  in
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Eda_guard.Deadline.start ~budget_ms:deadline_ms
  in
  Progress.set_deadline (fun () -> Eda_guard.Deadline.remaining_ms deadline);
  Metrics.incr m_runs;
  Trace.span_args "flow:run"
    [
      ("kind", kind_name kind);
      ("circuit", netlist.Netlist.name);
      ("jobs", string_of_int jobs);
    ]
  @@ fun () ->
  with_pool_opt ~jobs pool @@ fun pool ->
  let grid = match grid with Some g -> g | None -> Tech.grid_for tech netlist in
  if audit then audit_prepass tech grid ~sensitivity netlist;
  let lsk_model = Tech.lsk_model tech in
  let gcell_um = netlist.Netlist.gcell_um in
  let budget =
    Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v ~gcell_um netlist
  in
  let routes, route_s =
    match kind with
    | Id_no | Isino -> (
        match base with
        | Some r -> (r, 0.0)
        | None ->
            timed_phase "route" (fun () ->
                base_routes ~router ~pool ~deadline tech grid netlist))
    | Gsino ->
        timed_phase "route" (fun () ->
            route_with ~pool ~deadline router tech grid netlist
              (Id_router.Per_net
                 {
                   keff = tech.Tech.keff;
                   rate = Sensitivity.rate sensitivity;
                   kth = Budget.kth budget;
                 }))
  in
  (* route-aware budgeting re-partitions the bounds from the realized
     path lengths now that the routes exist (Phase I's router weight
     already used the uniform budget above) *)
  let budget =
    match budgeting with
    | Uniform -> budget
    | Route_aware ->
        Budget.route_aware ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v
          ~gcell_um ~grid ~routes netlist
  in
  let mode =
    match kind with Id_no -> Phase2.Order_only | Isino | Gsino -> Phase2.Min_area
  in
  (* The panel cache is the caller's (a front end's loaded --panel-cache
     store, whose lifecycle the caller owns), else one of this run's own.
     Solutions are content-determined either way, so the cache never
     changes a byte of output (DESIGN §10); it only skips repeat work. *)
  let cache =
    match cache with Some c -> c | None -> Eda_sino.Cache.create ()
  in
  (* Phase II's outcome includes the walk plan: every net's paths and its
     slot in each of its panels, resolved once for the rest of the flow
     (routes are final, and refinement keeps every panel's members) *)
  let (phase2, plan), sino_s =
    timed_phase "sino" (fun () ->
        let phase2 =
          Phase2.solve ~grid ~routes ~kth:(Budget.kth budget) ~sensitivity
            ~keff:tech.Tech.keff ~mode ~seed ~deadline ~cache ~pool ()
        in
        (phase2, Noise.plan ~grid ~phase2 ~netlist ~routes))
  in
  let usage = Usage.of_routes grid ~gcell_um (Array.to_list routes) in
  Phase2.apply_shields usage phase2;
  (* refinement ends with a scan of the final store; ID+NO, which has
     no refinement, is scanned here *)
  let refine_stats, violations, refine_s =
    match kind with
    | Id_no ->
        ( None,
          Noise.violations ~pool ~plan ~grid ~gcell_um ~phase2 ~lsk_model
            ~netlist ~routes ~bound_v:tech.Tech.noise_bound_v (),
          0.0 )
    | Isino | Gsino ->
        let (stats, violations), s =
          timed_phase "refine" (fun () ->
              Refine.run ~grid ~netlist ~routes ~phase2 ~usage ~lsk_model
                ~bound_v:tech.Tech.noise_bound_v ~deadline ~pool ~plan ())
        in
        (Some stats, violations, s)
  in
  Log.debug
    ~fields:[ ("kind", kind_name kind); ("circuit", netlist.Netlist.name) ]
    "flow phases done: route %.2fs, sino %.2fs, refine %.2fs" route_s sino_s
    refine_s;
  let lengths = Array.map (fun r -> Route.length_um r ~gcell_um) routes in
  let total_wl_um = Array.fold_left ( +. ) 0.0 lengths in
  let avg_wl_um =
    if Array.length lengths = 0 then 0.0
    else total_wl_um /. float_of_int (Array.length lengths)
  in
  let shields = Phase2.total_shields phase2 in
  (* per-kind outcome metrics, cumulative across the runs of the process
     like flow.phase_seconds — the series gsino_run diff guards in CI *)
  let kl = [ ("kind", kind_name kind) ] in
  Metrics.add (Metrics.counter ~labels:kl "flow.violations") (List.length violations);
  Metrics.add (Metrics.counter ~labels:kl "flow.shields") shields;
  Metrics.accum (Metrics.gauge ~labels:kl "flow.total_wl_um") total_wl_um;
  {
    kind;
    netlist;
    grid;
    sensitivity;
    routes;
    budget;
    phase2;
    usage;
    refine_stats;
    violations;
    avg_wl_um;
    total_wl_um;
    area = Usage.expanded_area usage;
    shields;
    route_s;
    sino_s;
    refine_s;
    deadline_hits = Eda_guard.Deadline.hits deadline;
  }

let run_kinds ?prepared ?pool ?cache ?deadline config tech ~rate kinds netlist
    ~f =
  (* a bad rate fails here, before any routing *)
  let sensitivity =
    Sensitivity.make ~seed:(config.Config.seed lxor 0xbeef) ~rate
  in
  Option.iter
    (fun (p : prepared) ->
      if p.router <> config.Config.router then
        invalid_arg "Flow.run_kinds: prepared with another router")
    prepared;
  with_pool_opt ~jobs:config.Config.jobs pool @@ fun pool ->
  let grid, base =
    match prepared with
    | Some p -> replay_prepare p netlist
    | None -> prepare ~config ~pool tech netlist
  in
  List.map
    (fun kind ->
      f
        (run ~grid ~base ~pool ?cache ?deadline { config with Config.kind }
           tech ~sensitivity netlist))
    kinds

let degraded r =
  r.deadline_hits <> [] || Phase2.degraded_panels r.phase2 <> []

let check ?(tech = Tech.default) r =
  let module Checker = Eda_check.Checker in
  let panels = ref [] in
  Phase2.iter r.phase2 (fun (region, dir) s ->
      (* the panel's nets by id, with the bounds its layout was solved
         against *)
      let inst = s.Phase2.inst in
      let bounds =
        Array.init (Eda_sino.Instance.size inst) (fun slot ->
            (Eda_sino.Instance.net_id inst slot, Eda_sino.Instance.kth inst slot))
      in
      Array.sort (fun (a, _) (b, _) -> compare a b) bounds;
      panels :=
        {
          Checker.region;
          dir;
          shields = Eda_sino.Layout.num_shields s.Phase2.layout;
          nets = Array.map fst bounds;
          kth = Array.map snd bounds;
          feasible = s.Phase2.feasible;
          degraded = s.Phase2.degraded;
        }
        :: !panels);
  let row, col, area = r.area in
  Checker.run
    {
      Checker.netlist = r.netlist;
      grid = r.grid;
      routes = r.routes;
      lsk_budget = r.budget.Budget.lsk_budget;
      kth = r.budget.Budget.kth;
      lsk_table = (Tech.lsk_model tech).Eda_lsk.Lsk.table;
      sensitive = Sensitivity.sensitive r.sensitivity;
      usage = r.usage;
      panels = !panels;
      total_shields = r.shields;
      violations = r.violations;
      bound_v = tech.Tech.noise_bound_v;
      metrics =
        [
          ("avg_wl_um", r.avg_wl_um);
          ("total_wl_um", r.total_wl_um);
          ("area_row_um", row);
          ("area_col_um", col);
          ("area_um2", area);
        ];
      deadline_phases = r.deadline_hits;
      keff = tech.Tech.keff;
    }

let violation_count r = List.length r.violations

let violation_pct r =
  100.0 *. float_of_int (violation_count r)
  /. float_of_int (max 1 (Netlist.num_nets r.netlist))

let pp_summary fmt r =
  let row, col, area = r.area in
  Format.fprintf fmt
    "%s on %s: %d violations (%.2f%%), avg WL %.0fum, area %.0fx%.0f=%.3e, %d shields (route %.1fs, sino %.1fs, refine %.1fs)"
    (kind_name r.kind) r.netlist.Netlist.name (violation_count r)
    (violation_pct r) r.avg_wl_um row col area r.shields r.route_s r.sino_s
    r.refine_s;
  (match Phase2.degraded_panels r.phase2 with
  | [] -> ()
  | ps -> Format.fprintf fmt " DEGRADED[%d panels]" (List.length ps));
  match r.deadline_hits with
  | [] -> ()
  | phases ->
      Format.fprintf fmt " DEADLINE[%s]" (String.concat "," phases)
