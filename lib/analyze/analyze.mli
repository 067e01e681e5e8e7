(** Pre-route static analysis of a routing instance.

    Everything here is computed from the netlist, the grid capacities
    and the sensitivity model alone — no router runs.  Four analyses
    (paper context in DESIGN.md section 8):

    + {b Capacity feasibility}: every net must cross every grid-line
      between the columns (rows) of its bounding box, and each crossing
      occupies a distinct track in the two adjacent region columns
      (rows).  Counting crossings against the summed track capacity of a
      cut proves overflow before Phase I — for {e any} routing, not just
      the one a router happens to produce.  A RUDY-style expected-demand
      map (each net's track spread uniformly over its bounding box)
      feeds the predicted-congestion heatmap of the run report.
    + {b Sensitivity-graph structure}: connected components, the degree
      histogram and a greedy max clique of the graph whose edges join
      mutually-sensitive nets with overlapping bounding boxes.
    + {b Kth/LSK satisfiability}: the LSK budget must be positive under
      the noise bound, and no net may need less coupling than even the
      conservative fully-shielded fallback layout can deliver.
    + {b Nss cross-check}: where co-location is provable, Formula (3)'s
      shield estimate is compared against the clique lower bound of
      {!Eda_sino.Bound}.

    Findings are coded {!Eda_check.Diag.t} diagnostics:

    - [GSL0024] (error) — cut demand exceeds track capacity;
    - [GSL0025] (warning) — a sensitivity clique forces a shield lower
      bound that pushes a prospective panel past its capacity;
    - [GSL0026] (error) — Kth/LSK bound unsatisfiable: no positive LSK
      budget exists, a Kth bound is not positive finite, or a net's
      bound is unmeetable even fully shielded;
    - [GSL0027] (warning) — the Formula-3 Nss estimate is provably
      below the clique shield lower bound.

    (Codes 0020–0023 were already released to the [Eda_guard] failure
    classes, so the analyzer catalog starts at the next free code.)

    Prospective panels — provable pre-route co-location of nets in one
    (region, direction) — exist where the cut's cross dimension is a
    single region (single-row grids for H, single-column for V); on
    general grids the panel-level findings are simply absent and the
    clique bound is enforced post-route by checker rule GSL0028. *)

module Diag = Eda_check.Diag

type config = {
  keff : Eda_sino.Keff.params;
  lsk : Eda_lsk.Lsk.t;
  noise_bound_v : float;
  estimate : Eda_sino.Estimate.coeffs;
}

(** One grid-line between adjacent region columns (H) or rows (V). *)
type cut = {
  dir : Eda_grid.Dir.t;
  index : int;  (** between column/row [index] and [index + 1] *)
  forced : int;  (** nets whose bounding box spans the cut *)
  capacity : int;  (** min of the two adjacent column/row track totals *)
}

(** Provable pre-route co-location of nets in one (region, direction). *)
type panel = {
  region : int;
  dir : Eda_grid.Dir.t;
  nets : int array;  (** global ids, sorted *)
  clique : int array;  (** greedy max clique among them, global ids *)
  shield_lb : int;  (** {!Eda_sino.Bound.shield_lower_bound} *)
  nss_estimate : float;  (** Formula (3) prediction for this panel *)
}

(** Structure of the sensitivity graph restricted to nets whose
    bounding boxes overlap (the pairs that can plausibly share a
    panel). *)
type graph = {
  nodes : int;
  edges : int;
  components : int;  (** of the nodes with degree >= 1, plus isolated *)
  degree_hist : int array;  (** [degree_hist.(d)] nets have degree [d] *)
  max_degree : int;
  max_clique : int;  (** greedy bound, netlist-level *)
}

type t = {
  netlist : Eda_netlist.Netlist.t;
  grid : Eda_grid.Grid.t;
  demand_h : float array;  (** expected H-track demand per region *)
  demand_v : float array;
  cuts : cut list;
  graph : graph;
  panels : panel list;
  lsk_budget : float;  (** <= 0 when the noise bound is unsatisfiable *)
  kth : float array;  (** uniform Phase-I bounds the audit assumed *)
  findings : Diag.t list;  (** sorted, errors first *)
}

(** [run config ~grid ~sensitivity netlist] — all four analyses.  Cost
    is O(nets^2) pair screening plus O(regions); the bench asserts it
    stays below 5 % of the route phase.  Records the [analyze.*]
    metrics (all deterministic — no wall-clock series). *)
val run :
  config ->
  grid:Eda_grid.Grid.t ->
  sensitivity:Eda_netlist.Sensitivity.t ->
  Eda_netlist.Netlist.t ->
  t

(** [demand_map grid netlist dir] — expected track demand per region for
    one direction: the RUDY map {!run} builds, alone, for the report's
    predicted-congestion heatmap.  Records no metric. *)
val demand_map :
  Eda_grid.Grid.t -> Eda_netlist.Netlist.t -> Eda_grid.Dir.t -> float array

(** {!demand_map} of the audited instance. *)
val demand : t -> Eda_grid.Dir.t -> float array

(** Peak predicted utilization over all regions and directions, in
    percent of capacity (0 on an empty grid). *)
val peak_demand_pct : t -> float

(** Total shield lower bound over the prospective panels. *)
val shield_lb_total : t -> int

val has_errors : t -> bool

(** One-paragraph human summary (counts, graph shape, worst cut). *)
val pp_summary : Format.formatter -> t -> unit
