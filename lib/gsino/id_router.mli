(** Iterative-deletion (ID) global routing (Cong/Preas [10], as extended
    by the paper's Phase I).

    Every net starts with its full bounding-box region subgraph as its
    connection graph G_i; the globally heaviest edge (Formula 2) is deleted
    repeatedly — unless deleting it would disconnect that net's pins, in
    which case it is essential forever (removing other edges can only turn
    more edges into bridges, never fewer) — until only essential edges
    remain, which is exactly a Steiner tree per net.

    Edge weight, Formula (2):

      w(e) = α·f(WL) + β·HD(R) + γ·HOFR(R)

    - [f(WL)]: detour factor of routing the net through [e], normalized to
      the net's RSMT estimate (static per net/edge);
    - [HD(R)]: track density [HU/HC] of the regions flanking [e], where
      [HU = Nns + Nss]: the live net-segment count plus — this is GSINO's
      shield-aware extension — the shields the region is predicted to
      need (the [Per_net] reading of Formula (3)).  The baselines (ID+NO,
      iSINO) drop the [Nss] term;
    - [HOFR(R)]: relative overflow, with γ ≫ α, β so overflow is all but
      forbidden.

    Densities only decrease during deletion, so a lazy max-heap with
    recompute-on-pop pops edges in exact weight order.

    Each net's state is flat: its candidate edges are numbered locally
    and its regions by their place in its bounding box, and per-edge
    status bytes, detour factors, CSR incidence (for the connectivity
    check) and shield membership are arrays over those numbers.  A heap
    entry is one int, [net * width + local edge], with [width] the
    largest candidate count.

    Equal weights pop by heap position, so ties are decided by the order
    the heap is seeded in (net order, then each net's local numbering,
    which follows the iteration order of a table of its candidates) and
    by {!Eda_util.Heap}'s comparisons.  Both are part of the output:
    changing either changes routes. *)

(** Formula (2)'s constants; {!Flow} passes {!Tech}'s. *)
type weights = { alpha : float; beta : float; gamma : float }

(** How the router accounts for shielding area. *)
type shield_model =
  | No_shields  (** conventional routing: HU = Nns *)
  | Per_net of { keff : Eda_sino.Keff.params; rate : float; kth : int -> float }
      (** HU = Nns + Σ over member nets of that net's expected per-region
          shield demand given its Kth bound — the sharper, Kth-aware
          reading of the Formula-3 reservation (see DESIGN.md): tight nets
          (Kth ≪ unshielded coupling) are the ones that force shields, so
          regions about to host several of them price themselves up and
          the router spreads those nets apart. *)

(** [shield_demand ~keff ~rate kth] — expected shield tracks one net
    segment with bound [kth] adds to its region: the number of shield
    layers needed to damp the expected unshielded coupling
    K̄ = 2·rate·Σ k1^d down to [kth], halved because neighbouring nets
    share shields. *)
val shield_demand : keff:Eda_sino.Keff.params -> rate:float -> float -> float

(** [route ~grid ~netlist ()] routes every net, returning one route per
    net (indexed by net id).

    @param weights Formula (2) constants
    @param shield_model default [No_shields]
    @param big_net_threshold nets whose bounding box exceeds this many
    regions bypass iterative deletion and take their RSMT route directly
    (engineering guard for chip-spanning nets; default 5000); a net's
    bounding box is its pins' plus one region of detour slack
    @param pool parallelizes the per-net candidate evaluation (connection
    graphs and detour factors); the deletion loop itself is sequential,
    so routes are identical for any job count
    @param deadline checked at every deletion-loop pop — every pop leaves
    all nets connected, so expiry stops deleting and returns the valid
    (less optimized) trees, marked as a ["route"] deadline hit *)
val route :
  grid:Eda_grid.Grid.t ->
  netlist:Eda_netlist.Netlist.t ->
  weights:weights ->
  ?shield_model:shield_model ->
  ?big_net_threshold:int ->
  ?deadline:Eda_guard.Deadline.t ->
  ?pool:Eda_exec.t ->
  unit ->
  Eda_grid.Route.t array

(** [steiner_route grid net] — the direct RSMT route (L-shaped embedding
    of the Steiner tree edges); also used for the big-net guard. *)
val steiner_route : Eda_grid.Grid.t -> Eda_netlist.Net.t -> Eda_grid.Route.t
