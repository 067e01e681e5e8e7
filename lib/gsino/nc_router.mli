(** Negotiated-congestion global router — the "more efficient global
    router ... integrated into the GSINO framework" the paper's §5 calls
    for.

    PathFinder-style: every net is decomposed into two-pin connections
    along its rectilinear MST and routed by Dijkstra over the region
    graph; congested (region, direction) track pools price themselves up
    (present-overuse and history terms), and overusing nets are ripped up
    and re-routed until the solution is overflow-free or the iteration
    budget runs out.

    The same shield models as {!Id_router} apply: with [Per_net], a
    region's predicted shield demand is added to its track usage, so the
    router reserves shielding area exactly as GSINO's Phase I does — only
    one to two orders of magnitude faster than iterative deletion on
    large instances (see the bench's router ablation). *)

(** [route ~grid ~netlist ()] returns one route per net.

    @raise Eda_guard.Error.Error [(Unreachable { net; region })] when a
    terminal of [net] sits in a [region] the search cannot reach from
    the net's partially-built tree — the region graph is disconnected.

    Negotiation runs at most 12 rip-up and re-route rounds, adding a
    history price of 0.4 per round of sustained overuse.

    @param shield_model as in {!Id_router} (default [No_shields])
    @param deadline checked between negotiation rounds (the initial
    routing always completes); expiry keeps the complete — possibly
    congested — routing and marks a ["route"] deadline hit *)
val route :
  grid:Eda_grid.Grid.t ->
  netlist:Eda_netlist.Netlist.t ->
  ?shield_model:Id_router.shield_model ->
  ?deadline:Eda_guard.Deadline.t ->
  unit ->
  Eda_grid.Route.t array
