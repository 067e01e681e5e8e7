module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Lintable = Eda_util.Lintable

type panel = {
  region : int;
  dir : Dir.t;
  shields : int;
  nets : int array;
  kth : float array;
  feasible : bool;
  degraded : bool;
}

type solution = {
  netlist : Netlist.t;
  grid : Grid.t;
  routes : Route.t array;
  lsk_budget : float;
  kth : float array;
  lsk_table : Lintable.t;
  sensitive : int -> int -> bool;
  usage : Usage.t;
  panels : panel list;
  total_shields : int;
  violations : (int * float) list;
  bound_v : float;
  metrics : (string * float) list;
  deadline_phases : string list;
  keff : Eda_sino.Keff.params;
}

let err ~code ?locus fmt = Diag.makef ~code Diag.Error ?locus fmt
let warn ~code ?locus fmt = Diag.makef ~code Diag.Warning ?locus fmt

(* ------------------------------ helpers ----------------------------- *)

let route_on_grid grid route =
  Array.for_all (fun e -> e >= 0 && e < Grid.num_edges grid) (Route.edges route)

let pins_on_grid grid net = List.for_all (Grid.in_bounds grid) (Net.pins net)

(* Per-net checks only make sense where net [i] exists in all three
   parallel arrays; structural mismatches are rule 4/9's findings. *)
let checked_nets sol =
  min (Array.length sol.netlist.Netlist.nets) (Array.length sol.routes)

(* Usage is indexed by its own grid; if that disagrees with the
   solution's grid every per-region lookup is meaningless (and would
   raise), so the accounting rules bail out after reporting. *)
let usage_grid_matches sol =
  let ug = Usage.grid sol.usage in
  Grid.width ug = Grid.width sol.grid && Grid.height ug = Grid.height sol.grid

let region_dirs grid =
  List.concat_map
    (fun d -> List.init (Grid.num_regions grid) (fun r -> (r, d)))
    Dir.all

let panel_key_tbl sol =
  (* (region, dir) -> (summed shields, merged net set); panels referencing
     regions outside the grid are skipped here and reported by rule 7. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if p.region >= 0 && p.region < Grid.num_regions sol.grid then begin
        let shields0, nets0 =
          Option.value
            (Hashtbl.find_opt tbl (p.region, p.dir))
            ~default:(0, Hashtbl.create 8)
        in
        Array.iter (fun n -> Hashtbl.replace nets0 n ()) p.nets;
        Hashtbl.replace tbl (p.region, p.dir) (shields0 + p.shields, nets0)
      end)
    sol.panels;
  tbl

(* ------------------------------- rules ------------------------------ *)

(* GSL0001: every route edge id must exist on the grid. *)
let rule_on_grid sol =
  let acc = ref [] in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun e ->
          if e < 0 || e >= Grid.num_edges sol.grid then
            acc :=
              err ~code:1 ~locus:(Diag.Net i)
                "route edge id %d outside grid (%d edges)" e
                (Grid.num_edges sol.grid)
              :: !acc)
        (Route.edges r))
    sol.routes;
  !acc

(* GSL0002: the route must connect all of the net's pins. *)
let rule_connected sol =
  let acc = ref [] in
  for i = 0 to checked_nets sol - 1 do
    let net = sol.netlist.Netlist.nets.(i) in
    if route_on_grid sol.grid sol.routes.(i) && pins_on_grid sol.grid net then
      if not (Route.connects sol.grid sol.routes.(i) (Net.pins net)) then
        acc :=
          err ~code:2 ~locus:(Diag.Net i)
            "route does not connect all %d pins" (Net.num_pins net)
          :: !acc
  done;
  !acc

(* GSL0003: the edge set must be acyclic. *)
let rule_tree sol =
  let acc = ref [] in
  Array.iteri
    (fun i r ->
      if route_on_grid sol.grid r && not (Route.is_tree sol.grid r) then
        acc :=
          err ~code:3 ~locus:(Diag.Net i)
            "route edge set contains a cycle (%d edges)" (Route.num_edges r)
          :: !acc)
    sol.routes;
  !acc

(* GSL0004: every net routed exactly once, in slot order. *)
let rule_routed_once sol =
  let n_nets = Array.length sol.netlist.Netlist.nets in
  let n_routes = Array.length sol.routes in
  let acc = ref [] in
  if n_routes <> n_nets then
    acc :=
      err ~code:4 "%d routes for %d nets (every net must be routed exactly once)"
        n_routes n_nets
      :: !acc;
  for i = 0 to checked_nets sol - 1 do
    let owner = Route.net sol.routes.(i) in
    if owner <> i then
      acc :=
        err ~code:4 ~locus:(Diag.Net i) "route slot %d belongs to net %d" i owner
        :: !acc
  done;
  !acc

(* GSL0005: track usage vs. capacity after shield insertion. *)
let rule_capacity sol =
  if not (usage_grid_matches sol) then []
  else
    List.filter_map
      (fun (r, d) ->
        let over = Usage.overflow sol.usage r d in
        if over > 0 then
          Some
            (warn ~code:5 ~locus:(Diag.Region (r, d))
               "over capacity: %d net + %d shield tracks for %d (region stretches %+d)"
               (Usage.nns sol.usage r d) (Usage.nss sol.usage r d)
               (Grid.cap sol.grid (Grid.region_pt sol.grid r) d)
               over)
        else None)
      (region_dirs sol.grid)

(* GSL0006: net-track accounting must equal a recount from the routes. *)
let rule_usage_matches sol =
  if not (usage_grid_matches sol) then
    [ err ~code:6 "usage accounting was built on a %dx%d grid, solution grid is %dx%d"
        (Grid.width (Usage.grid sol.usage))
        (Grid.height (Usage.grid sol.usage))
        (Grid.width sol.grid) (Grid.height sol.grid) ]
  else if not (Array.for_all (route_on_grid sol.grid) sol.routes) then
    [] (* rule 1 already fired; a recount would raise *)
  else begin
    let fresh =
      Usage.of_routes sol.grid ~gcell_um:(Usage.gcell_um sol.usage)
        (Array.to_list sol.routes)
    in
    List.filter_map
      (fun (r, d) ->
        let expect = Usage.nns fresh r d and got = Usage.nns sol.usage r d in
        if expect <> got then
          Some
            (err ~code:6 ~locus:(Diag.Region (r, d))
               "usage says %d net tracks, routes occupy %d" got expect)
        else None)
      (region_dirs sol.grid)
  end

(* GSL0007: shield accounting consistent between usage and the panels. *)
let rule_shields sol =
  let acc = ref [] in
  List.iter
    (fun p ->
      if p.region < 0 || p.region >= Grid.num_regions sol.grid then
        acc :=
          err ~code:7 "panel references region %d outside the %d-region grid"
            p.region (Grid.num_regions sol.grid)
          :: !acc;
      if p.shields < 0 then
        acc :=
          err ~code:7 ~locus:(Diag.Region (max 0 p.region, p.dir))
            "panel reports negative shield count %d" p.shields
          :: !acc)
    sol.panels;
  if usage_grid_matches sol then begin
    let tbl = panel_key_tbl sol in
    List.iter
      (fun ((r, d) as key) ->
        let expect =
          match Hashtbl.find_opt tbl key with Some (s, _) -> s | None -> 0
        in
        let got = Usage.nss sol.usage r d in
        if expect <> got then
          acc :=
            err ~code:7 ~locus:(Diag.Region (r, d))
              "usage says %d shield tracks, SINO panel inserted %d" got expect
            :: !acc)
      (region_dirs sol.grid);
    let usage_total = Usage.total_shields sol.usage in
    if usage_total <> sol.total_shields then
      acc :=
        err ~code:7 "usage holds %d shield tracks in total, flow reported %d"
          usage_total sol.total_shields
        :: !acc
  end;
  !acc

(* GSL0008: Kth * source–sink distance must recover the LSK budget
   (Formula 2 partitioning of the Formula 1 budget).  Both supported
   partition denominators are accepted: the Manhattan estimate (uniform
   budgeting) and the realized routed path length (route-aware). *)
let rule_budget_partition sol =
  if not (Float.is_finite sol.lsk_budget) || sol.lsk_budget <= 0.0 then
    [ err ~code:8 "LSK budget %g is not a positive finite value" sol.lsk_budget ]
  else begin
    let gcell = sol.netlist.Netlist.gcell_um in
    let tol = 1e-6 *. Float.max 1.0 sol.lsk_budget in
    let acc = ref [] in
    for i = 0 to min (checked_nets sol) (Array.length sol.kth) - 1 do
      let net = sol.netlist.Netlist.nets.(i) in
      let kth = sol.kth.(i) in
      if Float.is_finite kth && kth > 0.0 && Float.is_finite gcell && gcell > 0.0
      then begin
        let manhattan =
          Array.fold_left
            (fun a s -> max a (Point.manhattan net.Net.source s))
            1 net.Net.sinks
        in
        let routed =
          if route_on_grid sol.grid sol.routes.(i) && pins_on_grid sol.grid net
          then
            try
              Some
                (Array.fold_left
                   (fun a s ->
                     max a
                       (Route.path_length sol.grid sol.routes.(i)
                          ~source:net.Net.source ~sink:s))
                   1 net.Net.sinks)
            with Not_found -> None
          else None
        in
        let recovers d =
          Float.abs ((kth *. float_of_int d *. gcell) -. sol.lsk_budget) <= tol
        in
        let ok =
          recovers manhattan
          || match routed with Some d -> recovers d | None -> false
        in
        if not ok then
          acc :=
            err ~code:8 ~locus:(Diag.Net i)
              "Kth %.4g * %d gcells * %.0fum = %.4g does not recover LSK budget %.4g"
              kth manhattan gcell
              (kth *. float_of_int manhattan *. gcell)
              sol.lsk_budget
            :: !acc
      end
    done;
    !acc
  end

(* GSL0009: Kth bounds well-formed. *)
let rule_kth_positive sol =
  let n_nets = Array.length sol.netlist.Netlist.nets in
  let acc = ref [] in
  if Array.length sol.kth <> n_nets then
    acc :=
      err ~code:9 "%d Kth bounds for %d nets" (Array.length sol.kth) n_nets
      :: !acc;
  Array.iteri
    (fun i k ->
      if (not (Float.is_finite k)) || k <= 0.0 then
        acc :=
          err ~code:9 ~locus:(Diag.Net i) "Kth bound %g is not positive finite" k
          :: !acc)
    sol.kth;
  !acc

(* GSL0010: sensitivity must be symmetric with a zero diagonal. *)
let rule_sensitivity sol =
  let n = Array.length sol.netlist.Netlist.nets in
  let acc = ref [] in
  for i = 0 to n - 1 do
    if sol.sensitive i i then
      acc :=
        err ~code:10 ~locus:(Diag.Net i) "net is marked sensitive to itself"
        :: !acc
  done;
  let check_pair i j =
    if i <> j && sol.sensitive i j <> sol.sensitive j i then
      acc :=
        err ~code:10 ~locus:(Diag.Net i)
          "sensitivity to net %d is not symmetric" j
        :: !acc
  in
  if n <= 160 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        check_pair i j
      done
    done
  else begin
    (* deterministic LCG sample: full n^2 is too big, but asymmetry in a
       hash-derived relation would be systematic, not localized *)
    let state = ref 12345 in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    for _ = 1 to 20_000 do
      check_pair (next n) (next n)
    done
  end;
  !acc

(* GSL0011: the LSK lookup table must be monotone. *)
let rule_lsk_monotone sol =
  let entries = Lintable.entries sol.lsk_table in
  let acc = ref [] in
  Array.iteri
    (fun k (x, y) ->
      if not (Float.is_finite x && Float.is_finite y) then
        acc :=
          err ~code:11 "LSK table entry %d is not finite (%g, %g)" k x y :: !acc;
      if k > 0 then begin
        let px, py = entries.(k - 1) in
        if x <= px then
          acc :=
            err ~code:11 "LSK table abscissae not increasing at entry %d (%g <= %g)"
              k x px
            :: !acc;
        if y < py -. 1e-12 then
          acc :=
            err ~code:11 "LSK table not monotone at entry %d (noise %g < %g)" k y
              py
            :: !acc
      end)
    entries;
  !acc

(* GSL0012: scalar metrics must be finite and non-negative. *)
let rule_finite_metrics sol =
  let bad = ref [] in
  List.iter
    (fun (name, v) ->
      if (not (Float.is_finite v)) || v < 0.0 then
        bad := err ~code:12 "metric %s = %g (must be finite and >= 0)" name v :: !bad)
    sol.metrics;
  List.iter
    (fun (i, noise) ->
      if (not (Float.is_finite noise)) || noise < 0.0 then
        bad :=
          err ~code:12 ~locus:(Diag.Net i)
            "violation noise %g V (must be finite and >= 0)" noise
          :: !bad)
    sol.violations;
  !bad

(* GSL0013: every occupied (region, dir) needs a panel holding the net. *)
let rule_panel_coverage sol =
  let tbl = panel_key_tbl sol in
  let acc = ref [] in
  Array.iteri
    (fun i r ->
      if route_on_grid sol.grid r then
        List.iter
          (fun ((reg, d) as key) ->
            match Hashtbl.find_opt tbl key with
            | None ->
                acc :=
                  err ~code:13 ~locus:(Diag.Region (reg, d))
                    "occupied by net %d but no SINO panel was solved there" i
                  :: !acc
            | Some (_, nets) ->
                if not (Hashtbl.mem nets i) then
                  acc :=
                    err ~code:13 ~locus:(Diag.Region (reg, d))
                      "SINO panel does not include crossing net %d" i
                    :: !acc)
          (Route.occupied sol.grid r))
    sol.routes;
  !acc

(* GSL0014: panels should be feasible under their Kth bounds. *)
let rule_panel_feasible sol =
  List.filter_map
    (fun p ->
      if not p.feasible then
        Some
          (warn ~code:14 ~locus:(Diag.Region (p.region, p.dir))
             "SINO layout infeasible under its Kth bounds (%d nets, %d shields)"
             (Array.length p.nets) p.shields)
      else None)
    sol.panels

(* GSL0018: panels that took the resilience fallback path. *)
let rule_panel_degraded sol =
  List.filter_map
    (fun p ->
      if p.degraded then
        Some
          (warn ~code:18 ~locus:(Diag.Region (p.region, p.dir))
             "SINO panel degraded: solver fell back after retries (%d nets, %d shields)"
             (Array.length p.nets) p.shields)
      else None)
    sol.panels

(* GSL0019: phases truncated by the run's deadline. *)
let rule_deadline sol =
  match sol.deadline_phases with
  | [] -> []
  | phases ->
      [
        warn ~code:19
          "deadline expired: phase%s %s returned best-so-far results"
          (if List.length phases > 1 then "s" else "")
          (String.concat ", " phases);
      ]

(* GSL0028: a feasible panel must carry at least as many shields as the
   clique lower bound of Eda_sino.Bound, which holds for every feasible
   layout of its nets under the bounds it was solved against (refinement
   relaxes those per panel).  Fewer shields means the layout cannot
   actually satisfy the capacitive + inductive constraints it claims
   to. *)
let rule_shield_lb sol =
  let n = Array.length sol.kth in
  List.filter_map
    (fun p ->
      if
        p.feasible
        && Array.length p.nets >= 2
        && Array.length p.kth = Array.length p.nets
        && Array.for_all (fun i -> i >= 0 && i < n) p.nets
      then begin
        let inst =
          Eda_sino.Instance.make ~nets:p.nets ~kth:p.kth ~sensitive:sol.sensitive
        in
        let lb = Eda_sino.Bound.shield_lower_bound ~params:sol.keff inst in
        if p.shields < lb then
          Some
            (err ~code:28 ~locus:(Diag.Region (p.region, p.dir))
               "feasible panel has %d shields but the sensitivity clique \
                forces at least %d (%d nets)"
               p.shields lb (Array.length p.nets))
        else None
      end
      else None)
    sol.panels

(* GSL0015: residual crosstalk violations. *)
let rule_residual_violations sol =
  List.map
    (fun (i, noise) ->
      warn ~code:15 ~locus:(Diag.Net i)
        "predicted sink noise %.4g V exceeds the %.4g V bound" noise sol.bound_v)
    sol.violations

(* GSL0016: the netlist itself must be well-formed and match the grid. *)
let rule_netlist sol =
  let nl = sol.netlist in
  let acc = ref [] in
  if nl.Netlist.grid_w < 1 || nl.Netlist.grid_h < 1 then
    acc :=
      err ~code:16 "netlist grid %dx%d is empty" nl.Netlist.grid_w
        nl.Netlist.grid_h
      :: !acc;
  if (not (Float.is_finite nl.Netlist.gcell_um)) || nl.Netlist.gcell_um <= 0.0
  then
    acc :=
      err ~code:16 "gcell pitch %g um is not positive finite" nl.Netlist.gcell_um
      :: !acc;
  if
    Grid.width sol.grid <> nl.Netlist.grid_w
    || Grid.height sol.grid <> nl.Netlist.grid_h
  then
    acc :=
      err ~code:16 "solution grid %dx%d disagrees with netlist grid %dx%d"
        (Grid.width sol.grid) (Grid.height sol.grid) nl.Netlist.grid_w
        nl.Netlist.grid_h
      :: !acc;
  Array.iteri
    (fun i net ->
      if net.Net.id <> i then
        acc :=
          err ~code:16 ~locus:(Diag.Net i) "net id %d at netlist index %d"
            net.Net.id i
          :: !acc;
      if Array.length net.Net.sinks = 0 then
        acc := err ~code:16 ~locus:(Diag.Net i) "net has no sinks" :: !acc;
      List.iter
        (fun (pin : Point.t) ->
          if
            pin.Point.x < 0
            || pin.Point.x >= nl.Netlist.grid_w
            || pin.Point.y < 0
            || pin.Point.y >= nl.Netlist.grid_h
          then
            acc :=
              err ~code:16 ~locus:(Diag.Net i) "pin (%d,%d) outside %dx%d grid"
                pin.Point.x pin.Point.y nl.Netlist.grid_w nl.Netlist.grid_h
              :: !acc)
        (Net.pins net))
    nl.Netlist.nets;
  !acc

let rules =
  [
    (1, "route-on-grid", rule_on_grid);
    (2, "route-connected", rule_connected);
    (3, "route-is-tree", rule_tree);
    (4, "net-routed-once", rule_routed_once);
    (5, "region-capacity", rule_capacity);
    (6, "usage-matches-routes", rule_usage_matches);
    (7, "shield-accounting", rule_shields);
    (8, "budget-partition", rule_budget_partition);
    (9, "kth-positive", rule_kth_positive);
    (10, "sensitivity-symmetric", rule_sensitivity);
    (11, "lsk-table-monotone", rule_lsk_monotone);
    (12, "finite-metrics", rule_finite_metrics);
    (13, "panel-coverage", rule_panel_coverage);
    (14, "panel-feasible", rule_panel_feasible);
    (15, "residual-violations", rule_residual_violations);
    (16, "netlist-well-formed", rule_netlist);
    (18, "panel-degraded", rule_panel_degraded);
    (19, "deadline-degraded", rule_deadline);
    (28, "shield-lower-bound", rule_shield_lb);
  ]

let run sol = Diag.sort (List.concat_map (fun (_, _, rule) -> rule sol) rules)
