(** Phase II: solve SINO (or plain net ordering for the ID+NO baseline)
    inside every routing region and direction, under the partitioned Kth
    bounds.  The result stores, per (region, direction), the instance, its
    layout, and each net's achieved coupling K_i^j — the ingredients of the
    LSK sum and of Phase III's refinements.

    Each panel gets a number, in key order, and keeps it, its members and
    their order (their local {e slots}) for the life of the store: Phase
    III only swaps a panel's solution for one solved on the same nets
    ({!replace} checks it).  So a net's slot in each of its panels can be
    resolved once per flow, and K read by (panel, slot) with no hashing —
    what {!Noise.plan} does. *)

type key = int * Eda_grid.Dir.t

type soln = {
  inst : Eda_sino.Instance.t;
  layout : Eda_sino.Layout.t;
  k : float array;
      (** K by local slot: [k.(i)] is [Layout.k_of layout keff i], the
          achieved coupling of the net [Instance.net_id inst i] *)
  feasible : bool;
      (** [Layout.feasible layout keff] — computed once at construction
          so callers (and the checker) need not remember to ask *)
  degraded : bool;
      (** the solver could not reach feasibility (retries exhausted →
          fallback layout, or the deadline expired mid-solve) *)
}

type t

type mode = Eda_sino.Solver.mode = Order_only | Min_area

(** [solve ~grid ~routes ~kth ~sensitivity ~keff ~mode ~seed ()]
    builds and solves every non-empty region instance.  [kth net] supplies
    the per-net bound from Phase I budgeting.  Every panel goes through
    the {!Eda_sino.Solver.solve} choke point, which derives its RNG
    stream from the panel's canonical signature (+ flow seed + attempt),
    never from the panel's grid position — identical panels anywhere in
    the grid get identical layouts, and with [?pool] panels solve in
    parallel with results identical to the sequential order.

    [?cache] memoizes [Min_area] solves across panels (and, via
    [--panel-cache], across runs); cached results are byte-identical to
    re-solved ones (DESIGN §10), and every [panel.solve] journal event
    carries the outcome as its ["cache"] dimension.

    A [Min_area] panel that comes back infeasible is retried twice with
    fresh content-derived RNG streams inside the solver; if still
    infeasible (or its solve crashed), a conservative all-shield
    fallback is installed and the panel tagged degraded (bumping
    [guard.retries] / [guard.fallbacks] / [phase2.infeasible_panels]).
    An expired [deadline] stops both the per-panel improvement stages
    and the retry ladder, keeping best-so-far results.  [phase2.solve]
    is a fault-injection site. *)
val solve :
  grid:Eda_grid.Grid.t ->
  routes:Eda_grid.Route.t array ->
  kth:(int -> float) ->
  sensitivity:Eda_netlist.Sensitivity.t ->
  keff:Eda_sino.Keff.params ->
  mode:mode ->
  seed:int ->
  ?deadline:Eda_guard.Deadline.t ->
  ?cache:Eda_sino.Cache.t ->
  ?pool:Eda_exec.t ->
  unit ->
  t

val grid : t -> Eda_grid.Grid.t
val keff : t -> Eda_sino.Keff.params

(** [find t key] — the solved region, if any net crosses it. *)
val find : t -> key -> soln option

(** [panel t key] — the panel's number, if any net crosses the region. *)
val panel : t -> key -> int option

(** Panels are numbered [0 .. num_panels t - 1], in key order. *)
val num_panels : t -> int

val panel_key : t -> int -> key

(** [panel_soln t p] — panel [p]'s current solution; [(panel_soln t
    p).k.(slot)] is K by (panel, slot). *)
val panel_soln : t -> int -> soln

(** [k_of t ~net key] — K of [net] in that region, 0. if the net does not
    cross it (a scan of the panel's slots). *)
val k_of : t -> net:int -> key -> float

(** [shields t key] — shield tracks used there. *)
val shields : t -> key -> int

val total_shields : t -> int

(** [replace t key soln] — Phase III substitutes refined solutions.
    Raises [Invalid_argument] if no net crosses [key], or if [soln]'s
    instance does not hold the stored panel's nets in the same slots. *)
val replace : t -> key -> soln -> unit

(** [resolve t key inst] — re-run min-area SINO on a (possibly
    re-bounded) instance and build the [soln] record.  When the stored
    panel covers the same net set, its layout warm-starts the solver's
    deterministic repair kernel; either way the result is a pure
    function of the instance content and the flow seed, so refinement
    needs no RNG of its own (and benefits from the panel cache when one
    was given to {!solve}).  [refine.resolve] is a fault-injection site;
    an expired [deadline] degrades to the cheap repair stages only.
    [?net] and [?pass] attribute the resulting [panel.resolve] journal
    event to the net and refinement pass that asked for the re-solve. *)
val resolve :
  ?deadline:Eda_guard.Deadline.t ->
  ?net:int ->
  ?pass:string ->
  t ->
  key ->
  Eda_sino.Instance.t ->
  soln

(** [feasible t key] — the stored panel's feasibility; [true] for regions
    no net crosses. *)
val feasible : t -> key -> bool

(** Keys whose stored solution violates its bounds (sorted).  For the
    [Order_only] baseline this is expected and merely descriptive. *)
val infeasible_panels : t -> key list

(** Keys that took the degraded path (fallback layout or deadline
    truncation), sorted. *)
val degraded_panels : t -> key list

(** [apply_shields u t] — write every region's shield count into the
    usage accounting (for congestion and area metrics). *)
val apply_shields : Eda_grid.Usage.t -> t -> unit

(** In the same (hash-table) order the store has always used, which
    {!Flow.check}'s panel list follows. *)
val iter : t -> (key -> soln -> unit) -> unit

(** Keys of the regions a net crosses, from the stored membership. *)
val regions_of_net : t -> int -> key list
