(** Solvers for the per-region problems.

    {!solve} is the single entry point the flows use (Phase2 per-panel
    solves and Phase3 re-solves both route through it): it carries the
    RNG seed, the retry ladder, the deadline and the solve mode in one
    {!request}, canonicalizes the instance ({!Instance.canonicalize}),
    derives the RNG stream from the panel's {e content} (signature +
    seed + attempt), solves the canonical form and maps the result back.
    That makes the solution a pure function of panel content — identical
    panels anywhere in a flow (or across runs) get identical layouts —
    which is what lets the content-addressed {!Cache} short-circuit
    repeat work without changing a single byte of output (DESIGN §10).

    The low-level kernels remain available for benchmarks and studies:

    - {!order_only} is the NO baseline (used by ID+NO): permute the nets on
      the existing tracks to remove as much capacitive coupling (adjacent
      sensitive pairs) as possible — no shields, inductive bounds ignored.
    - {!min_area} is the min-area SINO heuristic (Phase II of GSINO and the
      per-region step of iSINO): find an ordering plus shield insertion
      that is capacitive-crosstalk free and meets every K_i ≤ Kth_i, with
      as few shields as possible.  SINO is NP-hard [4]; this is a greedy
      construct-then-repair heuristic with a shield-removal clean-up
      pass.
    - {!exact} is the optimum for panels of at most 10 nets: the oracle
      the tests and the bench's solver ablation check the heuristic
      against.  No flow runs it. *)

type mode = Order_only | Min_area

(** Everything one panel solve is parameterized on.  [seed] is the
    flow-level seed; the per-panel stream is derived from it and the
    canonical signature, never from the panel's grid position.
    [retries] reseeded re-attempts are made when a [Min_area] solve
    comes back infeasible (and when a worker crash is injected at
    [fault_site]); policy on exhaustion stays with the caller, which
    owns the panel context. *)
type request = {
  mode : mode;
  params : Keff.params;
  seed : int;
  retries : int;
  deadline : Eda_guard.Deadline.t;
  fault_site : string option;
      (** fault-injection point name pulled per attempt, e.g.
          ["phase2.solve"]; [None] disables the site *)
}

val request :
  ?mode:mode ->
  ?params:Keff.params ->
  ?retries:int ->
  ?deadline:Eda_guard.Deadline.t ->
  ?fault_site:string ->
  seed:int ->
  unit ->
  request
(** Defaults: [Min_area], {!Keff.default}, 2 retries, no deadline, no
    fault site. *)

(** How the cache participated in a solve; [panel.solve] journal events
    carry it as the ["cache"] dimension. *)
type disposition = Hit | Miss | Stored

type solution = {
  layout : Layout.t;  (** on the {e original} instance's labeling *)
  acceptable : bool;
      (** mode-aware: [Order_only] always; [Min_area] = feasible under
          [params].  The caller applies its infeasibility policy when
          [false]. *)
  degraded : bool;
      (** the deadline expired before an acceptable layout was reached;
          [layout] is the best effort *)
  cache : disposition option;  (** [None] when no cache was supplied *)
  signature : string;  (** canonical signature, for journaling *)
}

(** [solve ?cache ?warm request inst] — the choke point.  With [warm]
    (Phase3's re-solve of the same net set under changed bounds) the
    deterministic {!repair} kernel runs from the warm layout; otherwise
    the {!min_area} / {!order_only} ladder runs with content-derived
    reseeding.  With [cache], [Min_area] results are memoized under a
    key covering signature, mode, Keff parameters, seed and (for warm
    solves) a digest of the warm slots; hits are verified
    by content equality plus the {!Bound.shield_lower_bound} cross-check
    and replay the recorded solver-effort counters, so cumulative
    [sino.*] series match a cache-off run exactly.  Degraded, crashed or
    unacceptable results are never stored.

    Raises [Eda_guard.Error.Error (Worker_crash _)] when the fault site
    crashes the final attempt — the caller decides between failing and
    falling back, as it did before the redesign. *)
val solve : ?cache:Cache.t -> ?warm:Layout.t -> request -> Instance.t -> solution

(** [order_only rng inst] — greedy ordering plus adjacent-swap improvement.
    The layout has exactly [size inst] tracks and no shields. *)
val order_only : Eda_util.Rng.t -> Instance.t -> Layout.t

(** [min_area ?params ?deadline rng inst] — feasible layout unless the
    instance is pathologically tight, in which case the best effort is
    returned (check {!Layout.feasible}; {!solve} counts and retries
    these).  The inductive repair loop inserts at most 10 · size
    shields.  An expired [deadline] skips the improvement stages at
    their pass boundaries — the result is always a valid layout, just
    less optimized (greedy order + capacitive fix still run). *)
val min_area :
  ?params:Keff.params ->
  ?deadline:Eda_guard.Deadline.t ->
  Eda_util.Rng.t ->
  Instance.t ->
  Layout.t

(** [repair ?params ?deadline inst layout] — re-establish feasibility for
    an instance whose bounds changed (Phase III tightens/relaxes one net at
    a time), starting from the existing layout: keep the net ordering,
    add shields where bounds are now violated, then drop shields the new
    bounds no longer need.  Much cheaper than {!min_area} from scratch and
    minimally disturbs the other nets' couplings.  [layout] must belong to
    an instance with the same nets in the same order.  Deterministic (no
    RNG) and positional, so it commutes with net relabeling — which is
    why {!solve} may run it on the canonical form and map back. *)
val repair :
  ?params:Keff.params ->
  ?deadline:Eda_guard.Deadline.t ->
  Instance.t ->
  Layout.t ->
  Layout.t

(** [exact ?params inst] — a feasible layout with the fewest shields
    any feasible layout of [inst] can have.  A deterministic depth-first
    branch and bound (no RNG, no metrics) that lays tracks left to right,
    prunes on the bounds and the best shield count so far, and stops
    early at {!Bound.shield_lower_bound}.  Raises [Invalid_argument] on
    more than 10 nets (the search is exponential in the net count) or on
    a negative Kth. *)
val exact : ?params:Keff.params -> Instance.t -> Layout.t

(** [shields_needed ?params rng inst] = number of shields in the
    {!min_area} solution — the quantity Formula (3) estimates. *)
val shields_needed : ?params:Keff.params -> Eda_util.Rng.t -> Instance.t -> int
