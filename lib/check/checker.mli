(** Static analysis over a complete routing solution.

    The checker re-derives every internal invariant the GSINO flow is
    supposed to maintain — routes on-grid, connected and acyclic; track
    accounting consistent with the routes and the SINO shield counts;
    Phase-I [Kth] bounds actually partitioned from the LSK budget
    (Formula 1/2 consistency); SINO panels covering every occupied
    region — and reports violations as coded {!Diag.t} findings.

    The input {!solution} record is deliberately expressed in the lower
    layers' vocabulary ([Netlist]/[Grid]/[Route]/[Usage] plus plain data
    for the Phase-II panels), so the checker sits below the flow library
    and [Flow.check] can adapt a flow result into it.

    Rule catalog (stable codes; severity in brackets):
    - [GSL0001 [E]] route uses an edge id outside the grid
    - [GSL0002 [E]] route does not connect all of its net's pins
    - [GSL0003 [E]] route edge set is not a tree (contains a cycle)
    - [GSL0004 [E]] net/route mismatch: wrong array length or
      [routes.(i)] not belonging to net [i] (a net must be routed
      exactly once)
    - [GSL0005 [W]] region over capacity after shield insertion
      ([nns + nss > cap]; a warning because the area model of Table 3
      absorbs overflow by stretching the region)
    - [GSL0006 [E]] usage net-track accounting disagrees with the routes
    - [GSL0007 [E]] shield accounting mismatch between usage and the
      SINO panels (per region or in total)
    - [GSL0008 [E]] per-net [Kth] does not recover the LSK budget:
      [Kth_i * L_i * gcell_um] matches neither the Manhattan nor the
      routed source–sink distance partition within tolerance
    - [GSL0009 [E]] non-positive or non-finite [Kth] bound
    - [GSL0010 [E]] sensitivity relation asymmetric or self-sensitive
    - [GSL0011 [E]] LSK lookup table not monotone
    - [GSL0012 [E]] non-finite or negative solution metric
    - [GSL0013 [E]] occupied region without a SINO panel covering the net
    - [GSL0014 [W]] SINO panel layout infeasible under its [Kth] bounds
      (expected for the ID+NO baseline; refined flows should be clean)
    - [GSL0015 [W]] residual crosstalk violation: a sink's predicted
      noise exceeds the bound
    - [GSL0016 [E]] malformed netlist (pin off-grid, id mismatch, grid
      dimensions disagreeing with the netlist)
    - [GSL0018 [W]] SINO panel degraded: the solver exhausted its retry
      budget (or hit the deadline) and fell back to a conservative or
      best-so-far layout
    - [GSL0019 [W]] deadline expired during the run: the named phases
      returned best-so-far results
    - [GSL0028 [E]] feasible SINO panel carries fewer shields than the
      clique lower bound of {!Eda_sino.Bound} proves necessary under the
      panel's own [kth] bounds (codes
      0020–0023 belong to the [Eda_guard] failure classes and 0024–0027
      to the [Eda_analyze] pre-route audit) *)

(** One solved Phase-II region panel, flattened to plain data. *)
type panel = {
  region : int;
  dir : Eda_grid.Dir.t;
  shields : int;  (** shield tracks the SINO layout inserted there *)
  nets : int array;  (** global ids of the nets in the panel *)
  kth : float array;
      (** the bound of each of [nets], as the layout was solved against
          it: Phase I's, or the one refinement relaxed it to *)
  feasible : bool;  (** SINO layout feasible under the [kth] bounds *)
  degraded : bool;  (** layout came from the retry/fallback path *)
}

type solution = {
  netlist : Eda_netlist.Netlist.t;
  grid : Eda_grid.Grid.t;
  routes : Eda_grid.Route.t array;
  lsk_budget : float;  (** Phase-I LSK budget from the noise bound *)
  kth : float array;  (** per-net partitioned inductive bound *)
  lsk_table : Eda_util.Lintable.t;  (** LSK → noise lookup *)
  sensitive : int -> int -> bool;
      (** the sensitivity relation (e.g. [Sensitivity.sensitive s]); taken
          as a plain function so corrupted relations are constructible in
          tests *)
  usage : Eda_grid.Usage.t;
  panels : panel list;
  total_shields : int;  (** as reported by the flow (Phase2.total_shields) *)
  violations : (int * float) list;  (** nets over the bound, with noise (V) *)
  bound_v : float;  (** the per-sink noise constraint *)
  metrics : (string * float) list;
      (** named scalar metrics (wire lengths, areas) checked finite and
          non-negative *)
  deadline_phases : string list;
      (** phases truncated by the run's deadline ([[]] when none) *)
  keff : Eda_sino.Keff.params;
      (** coupling model the run used; rule GSL0028 evaluates the clique
          shield lower bound under it *)
}

(** The rule registry: [(code, name, rule)].  One rule owns one code;
    running a rule yields the findings for that code only. *)
val rules : (int * string * (solution -> Diag.t list)) list

(** [run solution] — every rule, findings sorted with {!Diag.sort}. *)
val run : solution -> Diag.t list
