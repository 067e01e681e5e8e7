(** End-to-end flows — the three approaches compared in §4:

    - [Id_no]  : conventional ID global routing (wire length + congestion
                 only) followed by net ordering per region.  No shields.
                 This baseline is *not* crosstalk-aware; its violations are
                 what Table 1 counts.
    - [Isino]  : the same conventional routing, followed by min-area SINO
                 per region (and local refinement to clear detour-induced
                 violations).  Shields appear wherever the router happened
                 to pack sensitive nets — the area blow-up of Table 3.
    - [Gsino]  : the paper's three-phase algorithm: crosstalk budgeting +
                 shield-aware ID routing (Formula 2 with the Formula-3
                 [Nss] term), SINO per region, and two-pass local
                 refinement.

    ID+NO and iSINO share the identical base routing (the paper runs both
    "without Nss in HU" for fairness); use {!base_routes} once and pass it
    to both runs. *)

type kind = Id_no | Isino | Gsino

val kind_name : kind -> string

(** Global-routing engine: the paper's iterative deletion, or the
    negotiated-congestion router of {!Nc_router} (§5's faster
    alternative).  Both accept the same shield models. *)
type router = Iterative_deletion | Negotiated

(** Each router's one spelling, ["id"] and ["nc"]: the CLIs' [--router]
    values and the serve protocol's [router] option. *)
val routers : (string * router) list

(** Crosstalk-budget partitioning for Phases II/III: the paper's uniform
    Manhattan split, or the route-aware variant of {!Budget.route_aware}
    (§5's "alternative budgeting approaches"). *)
type budgeting = Uniform | Route_aware

(** Each budgeting mode's one spelling, ["uniform"] and
    ["route-aware"]: the CLIs' [--budgeting] values and the serve
    protocol's [budgeting] option. *)
val budgetings : (string * budgeting) list

(** Everything a flow invocation is parameterized on, in one record —
    build one with [{ Config.default with kind = ...; jobs = ... }]
    instead of threading optional arguments through every layer.  Output
    sinks (trace/metrics/report files) stay CLI concerns and are not part
    of the flow configuration. *)
module Config : sig
  type t = {
    kind : kind;
    router : router;
    budgeting : budgeting;
    jobs : int;
        (** domains for the parallel sections (Phase II panels, Phase III
            noise scans, per-net candidate evaluation); [1] = fully
            sequential, byte-identical to the pre-parallel code.  Results
            are deterministic for any value — see DESIGN.md. *)
    seed : int;
        (** flow-level heuristic seed.  Per-panel RNG streams are derived
            from it together with the panel's canonical content signature
            (never its grid position), so identical panels get identical
            layouts — the property the panel cache relies on. *)
    deadline_ms : int;
        (** wall-clock budget for the whole run; [<= 0] disables the
            deadline.  On expiry each phase keeps its best-so-far result
            (valid but less optimized) and is recorded in
            [result.deadline_hits] — the run completes degraded instead
            of raising. *)
    audit : bool;
        (** run the {!Eda_analyze} static audit before routing (default
            [false]) and log its error-severity findings; the flow
            proceeds either way.  Timing is recorded as
            [flow.phase_seconds{phase="audit"}]. *)
  }

  (** [Gsino], iterative deletion, uniform budgeting, [jobs = 1],
      [seed = 7], no deadline, no audit pre-pass. *)
  val default : t
end

type result = {
  kind : kind;
  netlist : Eda_netlist.Netlist.t;
  grid : Eda_grid.Grid.t;
  sensitivity : Eda_netlist.Sensitivity.t;
  routes : Eda_grid.Route.t array;
  budget : Budget.t;
  phase2 : Phase2.t;
  usage : Eda_grid.Usage.t;
  refine_stats : Refine.stats option;
  violations : (int * float) list;  (** nets over the noise bound, worst first *)
  avg_wl_um : float;
  total_wl_um : float;
  area : float * float * float;  (** max row, max col, product (µm, µm, µm²) *)
  shields : int;
  route_s : float;  (** wall-clock seconds in global routing *)
  sino_s : float;  (** wall-clock seconds in Phase II *)
  refine_s : float;  (** wall-clock seconds in Phase III *)
  deadline_hits : string list;
      (** phases the deadline truncated (["route"] / ["sino"] /
          ["refine"]), in first-hit order; [[]] when the run completed
          inside its budget (or had none) *)
}

(** [base_routes ?router tech grid netlist] — conventional routing, no
    shield term; shared by ID+NO and iSINO. *)
val base_routes :
  ?router:router ->
  ?pool:Eda_exec.t ->
  ?deadline:Eda_guard.Deadline.t ->
  Tech.t ->
  Eda_grid.Grid.t ->
  Eda_netlist.Netlist.t ->
  Eda_grid.Route.t array

(** [demand_quantile usage grid q dir] — the [q]-quantile ([0..1]) of
    per-region net-track demand in direction [dir]; 0 on a grid with no
    regions.  {!prepare} clamps capacities at this value. *)
val demand_quantile :
  Eda_grid.Usage.t -> Eda_grid.Grid.t -> float -> Eda_grid.Dir.t -> int

(** [prepare ?config tech netlist] — the shared experimental setup: route
    the conventional (no-shield) flow on auto-provisioned capacities,
    then tighten every region's per-direction capacity to that routing's
    peak demand (its 0.90 {!demand_quantile}, at least 4).  This mirrors
    the paper's setting where the placement exactly accommodates
    conventional routing (ID+NO area = placement area in Table 3) and all
    of iSINO's/GSINO's area overhead comes from shields.  Uses
    [config]'s [router] and [jobs]
    (default {!Config.default}); [pool] reuses a caller-owned domain pool
    instead of spawning one. *)
val prepare :
  ?config:Config.t ->
  ?pool:Eda_exec.t ->
  Tech.t ->
  Eda_netlist.Netlist.t ->
  Eda_grid.Grid.t * Eda_grid.Route.t array

(** A {!prepare} result with what preparing recorded: the grid, the
    base routes, the router they were made with, the metrics snapshot of
    a fresh registry and the journal events of a private journal
    ({!Eda_obs.Journal.capture}).  {!run_kinds} replays it in place of
    preparing.  Nothing writes a prepared value's grid or routes, so
    domains may share one read-only. *)
type prepared

(** [record_prepare ?config ?pool tech netlist] — {!prepare}, recording
    its metrics in a fresh registry and its journal events in a private
    journal, which always records: a value made for a caller without a
    journal still serves one with it.  The calling domain's registry and
    journal are left as they were; its trace gets the preparation's
    spans. *)
val record_prepare :
  ?config:Config.t ->
  ?pool:Eda_exec.t ->
  Tech.t ->
  Eda_netlist.Netlist.t ->
  prepared

(** [run ?grid ?base config tech ~sensitivity netlist] executes the flow
    described by [config].  Pass the [grid] and [base] from {!prepare} so
    the three approaches share one setup ([base] is ignored by [Gsino],
    which re-routes shield-aware).  A [config.jobs]-domain pool lives for
    the duration of the call.

    The remaining optionals make the flow reentrant for a long-lived
    server, which owns these resources across many runs:
    - [pool] reuses a caller-owned {!Eda_exec} pool ([config.jobs] is
      then ignored for pool sizing);
    - [cache] memoizes panel solves in a caller-owned
      {!Eda_sino.Cache}, staying warm across runs; its load/save
      lifecycle belongs to the caller.  Without it the run memoizes in a
      fresh cache of its own.  Solutions are byte-identical either way
      (DESIGN §10);
    - [deadline] supplies an externally armed (possibly cancellable)
      deadline instead of starting one from [config.deadline_ms] —
      cancellation degrades the run at the next checkpoint exactly like
      time expiry. *)
val run :
  ?grid:Eda_grid.Grid.t ->
  ?base:Eda_grid.Route.t array ->
  ?pool:Eda_exec.t ->
  ?cache:Eda_sino.Cache.t ->
  ?deadline:Eda_guard.Deadline.t ->
  Config.t ->
  Tech.t ->
  sensitivity:Eda_netlist.Sensitivity.t ->
  Eda_netlist.Netlist.t ->
  result

(** [run_kinds ?prepared ?pool ?cache ?deadline config tech ~rate kinds
    netlist ~f] — one request of the paper's evaluation (§4), the entry
    of [gsino_run run]/[lint]/[map] and of the serve daemon: draw the
    sensitivity model from [config.seed lxor 0xbeef] at [rate] (a rate
    outside [0, 1] raises [Invalid_argument] before any routing),
    {!prepare} once with [config], then one {!run} per kind, in [kinds]
    order, on the shared grid and base routes.  [f] gets each result as
    its flow ends, so a result [f] does not keep is garbage before the
    next flow starts; [f]'s values come back in [kinds] order.  [pool],
    [cache] and [deadline] go to every call; without [pool] one
    [config.jobs]-domain pool serves them all, and without [cache] each
    run memoizes in a cache of its own.

    With [prepared] (a {!record_prepare} of [netlist] under [config]'s
    router, else [Invalid_argument]), nothing is routed to prepare: its
    recording is replayed into the calling domain's registry and
    journal first — counters and histograms add, gauges take the
    recorded value, and the events count in [journal.events] only when
    the journal is enabled — so metrics and journal equal a call without
    it.  The trace then holds a [flow:prepare] span with no router span
    under it. *)
val run_kinds :
  ?prepared:prepared ->
  ?pool:Eda_exec.t ->
  ?cache:Eda_sino.Cache.t ->
  ?deadline:Eda_guard.Deadline.t ->
  Config.t ->
  Tech.t ->
  rate:float ->
  kind list ->
  Eda_netlist.Netlist.t ->
  f:(result -> 'a) ->
  'a list

(** [degraded r] — did resilience machinery alter this result?  True when
    the deadline truncated a phase or any SINO panel took the fallback
    path.  A degraded result is still structurally valid (routes
    connected, accounting consistent) — the lint rules GSL0018/GSL0019
    describe what was given up. *)
val degraded : result -> bool

(** [check ?tech r] — static analysis of the finished flow: run every
    {!Eda_check.Checker} invariant rule against the solution and return
    the coded findings, sorted errors-first.  [tech] (default
    {!Tech.default}) supplies the LSK table and noise bound the run used.
    A healthy refined flow yields no [Error]-severity findings;
    [gsino_run lint] turns that into an exit code. *)
val check : ?tech:Tech.t -> result -> Eda_check.Diag.t list

(** [analyze_config tech] — the {!Eda_analyze.Analyze.config} matching a
    flow run under [tech]: its coupling model, LSK table, noise bound and
    the default Formula-3 coefficients.  Shared by the audit pre-pass and
    [gsino_run audit] so both judge the instance the flow will see. *)
val analyze_config : Tech.t -> Eda_analyze.Analyze.config

(** [violation_count r] / [violation_pct r] — Table 1's metrics. *)
val violation_count : result -> int

val violation_pct : result -> float

val pp_summary : Format.formatter -> result -> unit
