(** Post-layout RLC noise evaluation: the LSK sum of Equation (1) walked
    over a net's routed tree and the per-region SINO/NO layouts, mapped to
    volts through the LSK table — how crosstalk violations are counted in
    Tables 1 and how Phase III decides who to fix. *)

(** [sink_lsk ~grid ~gcell_um ~phase2 route ~source ~sink] — LSK along the
    tree path from source to sink ({!Eda_grid.Route.path_edges}): each
    path edge contributes half a gcell of length in each of its two
    regions, at that region's achieved K_i^j.  The definition the walk
    plan is checked against; the flows evaluate through a {!plan}. *)
val sink_lsk :
  grid:Eda_grid.Grid.t ->
  gcell_um:float ->
  phase2:Phase2.t ->
  Eda_grid.Route.t ->
  source:Eda_geom.Point.t ->
  sink:Eda_geom.Point.t ->
  float

(** A walk plan: every net's route resolved once against a Phase II
    store.  Routes are final after Phase I and refinement never changes a
    panel's members or their slots ({!Phase2.replace}), so the plan holds,
    as flat int arrays, the BFS tree {!Eda_grid.Route.path_edges} explores
    from each net's source (same adjacency, same queue order — a cyclic
    route gets the same paths), each tree edge end's (panel, slot), each
    sink's tree node, and each net's edge-end count per panel slot.  A
    net's sink LSKs are then prefix sums down its tree, reading the
    store's current K by (panel, slot): [lsk(child) = lsk(parent) +. half
    a +. half b], the fold's operands in the fold's order, so every sum is
    bit-identical to {!sink_lsk}'s.  The plan is immutable and keeps the
    store it was built on, whose solutions Phase III swaps in place; build
    it on one domain, then read it from any. *)
type plan

(** [plan ~grid ~phase2 ~netlist ~routes] — [routes.(i)] is net [i]'s, and
    [phase2] was solved on [routes]. *)
val plan :
  grid:Eda_grid.Grid.t ->
  phase2:Phase2.t ->
  netlist:Eda_netlist.Netlist.t ->
  routes:Eda_grid.Route.t array ->
  plan

(** [sink_lsks plan ~gcell_um i] — each of net [i]'s sinks' LSK, in
    [sinks] order, bit-equal to {!sink_lsk} on the net's route.  Raises
    [Invalid_argument] if the route does not reach a sink. *)
val sink_lsks : plan -> gcell_um:float -> int -> float array

(** [worst_sink plan ~gcell_um ~lsk_model i] — net [i]'s sink with the
    highest predicted noise under [lsk_model], as [(index into its sinks,
    lsk, noise_v)]: sinks are scanned in order and a later sink wins only
    on strictly higher noise; a sink in the source region has LSK [0.].
    Phase III tightens along the tree path to this sink.  Raises
    [Invalid_argument] if the route does not reach a sink. *)
val worst_sink :
  plan -> gcell_um:float -> lsk_model:Eda_lsk.Lsk.t -> int -> int * float * float

(** [net_worst plan ~gcell_um ~lsk_model i] — the worst sink's
    [(lsk, noise_v)]. *)
val net_worst : plan -> gcell_um:float -> lsk_model:Eda_lsk.Lsk.t -> int -> float * float

(** [path_slots plan i ~sink] — the distinct [(panel, slot)]s of net [i]
    on the tree path to its [sink]-th sink: the panels whose K enter that
    sink's LSK. *)
val path_slots : plan -> int -> sink:int -> (int * int) list

(** [segment_um plan ~gcell_um ~panel ~slot] — the length of the slot's
    net inside the panel's region and direction: half a gcell per route
    edge end there, as {!Eda_grid.Route.segments} counts it. *)
val segment_um : plan -> gcell_um:float -> panel:int -> slot:int -> float

(** One net's entry in the noise-margin audit: worst-sink LSK, its mapped
    noise, and the margin to the bound (negative when violating). *)
type audit_entry = {
  net : int;
  lsk : float;
  noise_v : float;
  margin_v : float;  (** [bound_v -. noise_v] *)
  violating : bool;
}

(** [audit ~netlist ~routes ... ~bound_v ()] — every net's worst-sink
    noise against the bound, sorted worst (highest noise) first.  The run
    report's noise table; {!violations} is the violating prefix.  Per-net
    evaluation is read-only, so [?pool] fans it out with an order-
    preserving (index-ordered) reduction — same list for any job count.
    Without [?plan] it builds one; a given plan must have been built on
    this [phase2] and [netlist] ([Invalid_argument] otherwise). *)
val audit :
  ?pool:Eda_exec.t ->
  ?plan:plan ->
  grid:Eda_grid.Grid.t ->
  gcell_um:float ->
  phase2:Phase2.t ->
  lsk_model:Eda_lsk.Lsk.t ->
  netlist:Eda_netlist.Netlist.t ->
  routes:Eda_grid.Route.t array ->
  bound_v:float ->
  unit ->
  audit_entry list

(** [violations ~netlist ~routes ... ()] — ids of nets whose worst sink
    noise exceeds [bound_v], with their noise, sorted worst first. *)
val violations :
  ?pool:Eda_exec.t ->
  ?plan:plan ->
  grid:Eda_grid.Grid.t ->
  gcell_um:float ->
  phase2:Phase2.t ->
  lsk_model:Eda_lsk.Lsk.t ->
  netlist:Eda_netlist.Netlist.t ->
  routes:Eda_grid.Route.t array ->
  bound_v:float ->
  unit ->
  (int * float) list
