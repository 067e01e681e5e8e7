(** Phase III: two passes of greedy iterative local refinement (Figure 2).

    Pass 1 — eliminate crosstalk violations.  Budgeting used Manhattan
    distances; detours make the realized LSK exceed the budget for a few
    nets.  For the worst-violating net, repeatedly pick the least congested
    region on its route, tighten the net's Kth there (trading one more
    shield's worth of coupling, per Formula (3)'s reading), and re-run
    SINO in that region, until the net meets its noise bound.

    Pass 2 — reduce routing congestion.  Take the most utilized panel
    with shields, and grant its nets their remaining LSK slack as raised
    Kth bounds, largest slack first, up to the first net with none.
    Re-run SINO once with every grant; if that drops no shield, leave
    the panel.  Otherwise bisect the grant prefixes for the shortest one
    whose re-solve drops a shield, and accept that layout unless one of
    the nets whose K rose now violates its noise bound.  A panel leaves
    the candidates when it is picked and returns only after an accepted
    drop that left it some shields.

    Every re-solve warm-starts from the stored layout.  When that layout
    is feasible, repair under raised bounds only removes shields, and
    whether a prefix drops one is monotone in its length.  So the
    bisection returns the first prefix in grant order that drops a
    shield, where the paper's one-net-at-a-time relaxation stops, and
    only nets whose K rose can start violating.  A stored layout can be
    infeasible (a degraded Phase II fallback, or a re-solve cut short by
    the deadline); on such a panel the accepted prefix still drops a
    shield, but it may be longer than the first one that does.

    Both passes mutate the {!Phase2} store and the shield counts in the
    usage accounting in place.  The mutating tighten/relax steps are
    inherently sequential; [?pool] parallelizes only pass 1's violation
    sweep and the final scan, so results are identical for
    any job count.  Refinement carries no RNG of its own: every re-solve
    goes through {!Phase2.resolve}, whose result is a pure function of
    the re-bounded instance content and the flow seed. *)

type stats = {
  pass1_nets_fixed : int;  (** violating nets repaired *)
  pass1_resolves : int;  (** SINO re-runs in pass 1 *)
  pass2_shields_removed : int;
  pass2_resolves : int;
  residual_violations : int;  (** should be 0 *)
}

(** [run ...] — both passes, then one {!Noise.violations} scan of the
    refined store: the stats, and the violations that scan found (as
    {!Noise.violations} returns them; [residual_violations] is their
    count).  [deadline] is checked between pass-1 rip-up rounds and
    pass-2 panel rounds (both leave the Phase2 store consistent); expiry
    stops the pass with its work so far and marks a ["refine"] deadline
    hit.  Every noise evaluation, path and segment length reads [plan]
    (built on [phase2] and [routes] when not given, see {!Noise.plan}). *)
val run :
  grid:Eda_grid.Grid.t ->
  netlist:Eda_netlist.Netlist.t ->
  routes:Eda_grid.Route.t array ->
  phase2:Phase2.t ->
  usage:Eda_grid.Usage.t ->
  lsk_model:Eda_lsk.Lsk.t ->
  bound_v:float ->
  ?deadline:Eda_guard.Deadline.t ->
  ?pool:Eda_exec.t ->
  ?plan:Noise.plan ->
  unit ->
  stats * (int * float) list

val pp_stats : Format.formatter -> stats -> unit
