module Point = Eda_geom.Point
module Rect = Eda_geom.Rect
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Keff = Eda_sino.Keff
module Instance = Eda_sino.Instance
module Bound = Eda_sino.Bound
module Estimate = Eda_sino.Estimate
module Lsk = Eda_lsk.Lsk
module Diag = Eda_check.Diag
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

type config = {
  keff : Keff.params;
  lsk : Lsk.t;
  noise_bound_v : float;
  estimate : Estimate.coeffs;
}

type cut = { dir : Dir.t; index : int; forced : int; capacity : int }

type panel = {
  region : int;
  dir : Dir.t;
  nets : int array;
  clique : int array;
  shield_lb : int;
  nss_estimate : float;
}

type graph = {
  nodes : int;
  edges : int;
  components : int;
  degree_hist : int array;
  max_degree : int;
  max_clique : int;
}

type t = {
  netlist : Netlist.t;
  grid : Grid.t;
  demand_h : float array;
  demand_v : float array;
  cuts : cut list;
  graph : graph;
  panels : panel list;
  lsk_budget : float;
  kth : float array;
  findings : Diag.t list;
}

(* All analyze.* series are deterministic functions of the instance (no
   wall-clock), so the CI jobs=1/jobs=4 determinism gate covers them. *)
let m_runs = Metrics.counter "analyze.runs"
let m_cut_overflows = Metrics.counter "analyze.cut_overflows"
let g_components = Metrics.gauge "analyze.components"
let g_max_clique = Metrics.gauge "analyze.max_clique"
let g_shield_lb = Metrics.gauge "analyze.shield_lb"
let g_peak_demand = Metrics.gauge "analyze.peak_demand_pct"
let m_errors = Metrics.counter ~labels:[ ("severity", "error") ] "analyze.findings"
let m_warnings =
  Metrics.counter ~labels:[ ("severity", "warning") ] "analyze.findings"

let err ~code ?locus fmt = Diag.makef ~code Diag.Error ?locus fmt
let warn ~code ?locus fmt = Diag.makef ~code Diag.Warning ?locus fmt

(* ------------------------- capacity / RUDY -------------------------- *)

(* Expected track demand per region: a net spanning dx+1 columns needs a
   horizontal track in each of them, in some row of its bounding box —
   spread uniformly over the rows (the RUDY estimate; exact where the
   box is one region tall).  Filled through a 2-D difference array so
   the cost is O(nets + regions), not O(sum of box areas). *)
let demand_map grid netlist dir =
  let w = Grid.width grid and h = Grid.height grid in
  let diff = Array.make ((w + 1) * (h + 1)) 0.0 in
  let add x0 y0 x1 y1 v =
    let at x y = (y * (w + 1)) + x in
    diff.(at x0 y0) <- diff.(at x0 y0) +. v;
    diff.(at (x1 + 1) y0) <- diff.(at (x1 + 1) y0) -. v;
    diff.(at x0 (y1 + 1)) <- diff.(at x0 (y1 + 1)) -. v;
    diff.(at (x1 + 1) (y1 + 1)) <- diff.(at (x1 + 1) (y1 + 1)) +. v
  in
  Array.iter
    (fun net ->
      let b = Net.bbox net in
      match dir with
      | Dir.H ->
          if b.Rect.x1 > b.Rect.x0 then
            add b.Rect.x0 b.Rect.y0 b.Rect.x1 b.Rect.y1
              (1.0 /. float_of_int (Rect.height b))
      | Dir.V ->
          if b.Rect.y1 > b.Rect.y0 then
            add b.Rect.x0 b.Rect.y0 b.Rect.x1 b.Rect.y1
              (1.0 /. float_of_int (Rect.width b)))
    netlist.Netlist.nets;
  let out = Array.make (Grid.num_regions grid) 0.0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v =
        diff.((y * (w + 1)) + x)
        +. (if x > 0 then out.(Grid.region_id grid (Point.make (x - 1) y)) else 0.0)
        +. (if y > 0 then out.(Grid.region_id grid (Point.make x (y - 1))) else 0.0)
        -.
        if x > 0 && y > 0 then
          out.(Grid.region_id grid (Point.make (x - 1) (y - 1)))
        else 0.0
      in
      out.(Grid.region_id grid (Point.make x y)) <- v
    done
  done;
  out

(* Forced crossings per cut: a net whose pins span columns x0..x1 must
   cross every vertical grid-line in between, each crossing occupying a
   distinct track in both adjacent region columns.  Cut capacity is the
   smaller of the two columns' track totals. *)
let cuts_of grid netlist =
  let w = Grid.width grid and h = Grid.height grid in
  let col_cap c =
    let acc = ref 0 in
    for y = 0 to h - 1 do
      acc := !acc + Grid.cap grid (Point.make c y) Dir.H
    done;
    !acc
  in
  let row_cap r =
    let acc = ref 0 in
    for x = 0 to w - 1 do
      acc := !acc + Grid.cap grid (Point.make x r) Dir.V
    done;
    !acc
  in
  let forced_h = Array.make (max 0 (w - 1)) 0 in
  let forced_v = Array.make (max 0 (h - 1)) 0 in
  Array.iter
    (fun net ->
      let b = Net.bbox net in
      for c = b.Rect.x0 to b.Rect.x1 - 1 do
        forced_h.(c) <- forced_h.(c) + 1
      done;
      for r = b.Rect.y0 to b.Rect.y1 - 1 do
        forced_v.(r) <- forced_v.(r) + 1
      done)
    netlist.Netlist.nets;
  let h_cuts =
    List.init (max 0 (w - 1)) (fun c ->
        {
          dir = Dir.H;
          index = c;
          forced = forced_h.(c);
          capacity = min (col_cap c) (col_cap (c + 1));
        })
  in
  let v_cuts =
    List.init (max 0 (h - 1)) (fun r ->
        {
          dir = Dir.V;
          index = r;
          forced = forced_v.(r);
          capacity = min (row_cap r) (row_cap (r + 1));
        })
  in
  h_cuts @ v_cuts

(* --------------------- sensitivity-graph shape ---------------------- *)

(* Edges join mutually-sensitive nets whose bounding boxes overlap: the
   pairs that can share a panel without one of them detouring off its
   box.  The screen is O(n^2) cheap integer compares; the hash-based
   sensitivity predicate only runs on overlapping pairs. *)
let graph_of sensitivity netlist =
  let nets = netlist.Netlist.nets in
  let n = Array.length nets in
  let boxes = Array.map Net.bbox nets in
  let adj = Array.make n [] in
  let degree = Array.make n 0 in
  let edges = ref 0 in
  (* path compression and union by rank: a bare parent array let
     [find] walk chains as long as the component, super-quadratic over
     the edges of a dense graph *)
  let uf = Eda_util.Union_find.create n in
  let union i j = ignore (Eda_util.Union_find.union uf i j) in
  let overlaps a b =
    a.Rect.x0 <= b.Rect.x1 && b.Rect.x0 <= a.Rect.x1 && a.Rect.y0 <= b.Rect.y1
    && b.Rect.y0 <= a.Rect.y1
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if overlaps boxes.(i) boxes.(j) && Sensitivity.sensitive sensitivity i j
      then begin
        incr edges;
        degree.(i) <- degree.(i) + 1;
        degree.(j) <- degree.(j) + 1;
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j);
        union i j
      end
    done
  done;
  let components = Eda_util.Union_find.count uf in
  let max_degree = Array.fold_left max 0 degree in
  let degree_hist = Array.make (max_degree + 1) 0 in
  Array.iter (fun d -> degree_hist.(d) <- degree_hist.(d) + 1) degree;
  (* greedy clique on the explicit adjacency, highest degree first *)
  let max_clique =
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        if degree.(a) <> degree.(b) then compare degree.(b) degree.(a)
        else compare a b)
      order;
    (* [ok.(v)] counts accepted clique members adjacent to [v]; [v] may
       join exactly when it is adjacent to all of them.  Same greedy
       visit order (hence same result) as the naive all-pairs membership
       test, but O(deg) per accepted member instead of O(clique * deg)
       per candidate. *)
    let ok = Array.make n 0 in
    let best = ref 0 in
    Array.iter
      (fun seed ->
        if degree.(seed) + 1 > !best then begin
          Array.fill ok 0 n 0;
          List.iter (fun u -> ok.(u) <- 1) adj.(seed);
          let size = ref 1 in
          Array.iter
            (fun v ->
              if v <> seed && ok.(v) = !size then begin
                incr size;
                List.iter (fun u -> ok.(u) <- ok.(u) + 1) adj.(v)
              end)
            order;
          best := max !best !size
        end)
      order;
    !best
  in
  { nodes = n; edges = !edges; components; degree_hist; max_degree; max_clique }

(* ----------------------- prospective panels ------------------------- *)

(* Provable co-location needs the cut's cross dimension to be a single
   region: on a 1-row grid every net spanning column c occupies an H
   track in region (c, 0) — there is nowhere else to cross. *)
let panels_of config grid netlist sensitivity kth =
  let w = Grid.width grid and h = Grid.height grid in
  let sens = Sensitivity.sensitive sensitivity in
  let mk region dir members =
    let nets = Array.of_list (List.rev members) in
    Array.sort compare nets;
    let inst =
      Instance.make ~nets ~kth:(Array.map (fun i -> kth.(i)) nets) ~sensitive:sens
    in
    let clique = Array.map (Instance.net_id inst) (Bound.greedy_clique inst) in
    {
      region;
      dir;
      nets;
      clique;
      shield_lb = Bound.shield_lower_bound ~params:config.keff inst;
      nss_estimate =
        Estimate.predict config.estimate ~nns:(Array.length nets)
          ~s:(Instance.sensitivities inst);
    }
  in
  let along dir len pick =
    List.filter_map
      (fun c ->
        let members = ref [] in
        Array.iteri
          (fun i net ->
            let b = Net.bbox net in
            let lo, hi = pick b in
            if lo <= c && c <= hi && hi > lo then members := i :: !members)
          netlist.Netlist.nets;
        if List.length !members >= 2 then
          Some
            (mk
               (Grid.region_id grid
                  (match dir with
                  | Dir.H -> Point.make c 0
                  | Dir.V -> Point.make 0 c))
               dir !members)
        else None)
      (List.init len Fun.id)
  in
  (if h = 1 && w > 1 then along Dir.H w (fun b -> (b.Rect.x0, b.Rect.x1)) else [])
  @ if w = 1 && h > 1 then along Dir.V h (fun b -> (b.Rect.y0, b.Rect.y1)) else []

(* ---------------------------- findings ------------------------------ *)

let cut_findings cuts =
  List.filter_map
    (fun c ->
      if c.forced > c.capacity then
        Some
          (err ~code:24
             "%s cut %d|%d: %d nets must cross but only %d tracks exist on a \
              side (provable overflow, any routing)"
             (Dir.to_string c.dir) c.index (c.index + 1) c.forced c.capacity)
      else None)
    cuts

let panel_findings config grid sens kth panels =
  let p_keff = config.keff in
  List.concat_map
    (fun p ->
      let cap = Grid.cap grid (Grid.region_pt grid p.region) p.dir in
      let m = Array.length p.nets in
      let locus = Diag.Region (p.region, p.dir) in
      let pressure =
        if p.shield_lb > 0 && m + p.shield_lb > cap then
          [
            warn ~code:25 ~locus
              "clique of %d mutually-sensitive nets forces >= %d shields: %d \
               net + %d shield tracks exceed capacity %d (region stretches)"
              (Array.length p.clique) p.shield_lb m p.shield_lb cap;
          ]
        else []
      in
      (* Fully-shielded floor: with one shield in every gap (the guard's
         conservative fallback layout), net i's nearest sensitive
         aggressor sits at rank distance at most R = m - s_i in every
         ordering, contributing at least k1^(2R) * sb^R to K_i.  A Kth
         below that is unmeetable even fully shielded. *)
      let unmeetable =
        List.filter_map
          (fun i ->
            let s_i =
              Array.fold_left
                (fun acc j -> if j <> i && sens i j then acc + 1 else acc)
                0 p.nets
            in
            if s_i = 0 then None
            else begin
              let r = m - s_i in
              if 2 * r > p_keff.Keff.window then None
              else begin
                let floor_k =
                  (p_keff.Keff.k1 ** float_of_int (2 * r))
                  *. (p_keff.Keff.shield_block ** float_of_int r)
                in
                if kth.(i) +. 1e-12 < floor_k then
                  Some
                    (err ~code:26 ~locus:(Diag.Net i)
                       "Kth %.4g unmeetable even fully shielded: %d sensitive \
                        neighbours in region %d/%s leave a coupling floor of \
                        %.4g (one-shield threshold %.4g)"
                       kth.(i) s_i p.region (Dir.to_string p.dir) floor_k
                       (Bound.one_shield_threshold p_keff))
                else None
              end
            end)
          (Array.to_list p.nets)
      in
      let nss =
        if p.shield_lb > 0 && p.nss_estimate +. 1e-9 < float_of_int p.shield_lb
        then
          [
            warn ~code:27 ~locus
              "Formula-3 Nss estimate %.2f is provably below the clique shield \
               lower bound %d (%d nets, clique %d)"
              p.nss_estimate p.shield_lb m (Array.length p.clique);
          ]
        else []
      in
      pressure @ unmeetable @ nss)
    panels

(* Uniform Phase-I partition, mirroring Budget.uniform but returning a
   diagnostic instead of raising when the noise bound is unsatisfiable
   (Budget lives above this library in the dependency order). *)
let budget_of config netlist =
  let budget = Lsk.lsk_bound config.lsk ~noise:config.noise_bound_v in
  if (not (Float.is_finite budget)) || budget <= 0.0 then (budget, [||])
  else
    ( budget,
      Array.map
        (fun net ->
          let far =
            Array.fold_left
              (fun acc sink -> max acc (Point.manhattan net.Net.source sink))
              1 net.Net.sinks
          in
          budget /. (float_of_int far *. netlist.Netlist.gcell_um))
        netlist.Netlist.nets )

let demand t dir = match dir with Dir.H -> t.demand_h | Dir.V -> t.demand_v

let peak_demand_pct t =
  let peak = ref 0.0 in
  let scan dir dem =
    Array.iteri
      (fun r d ->
        let cap = Grid.cap t.grid (Grid.region_pt t.grid r) dir in
        if cap > 0 then peak := Float.max !peak (100.0 *. d /. float_of_int cap))
      dem
  in
  scan Dir.H t.demand_h;
  scan Dir.V t.demand_v;
  !peak

let shield_lb_total t =
  List.fold_left (fun acc p -> acc + p.shield_lb) 0 t.panels

let run config ~grid ~sensitivity netlist =
  Trace.span "analyze.run" @@ fun () ->
  Metrics.incr m_runs;
  let demand_h = Trace.span "analyze.demand" (fun () -> demand_map grid netlist Dir.H) in
  let demand_v = Trace.span "analyze.demand" (fun () -> demand_map grid netlist Dir.V) in
  let cuts = Trace.span "analyze.cuts" (fun () -> cuts_of grid netlist) in
  let graph = Trace.span "analyze.graph" (fun () -> graph_of sensitivity netlist) in
  let lsk_budget, kth = Trace.span "analyze.budget" (fun () -> budget_of config netlist) in
  let sens = Sensitivity.sensitive sensitivity in
  let budget_findings =
    if Array.length kth > 0 then
      List.filter_map
        (fun i ->
          if (not (Float.is_finite kth.(i))) || kth.(i) <= 0.0 then
            Some
              (err ~code:26 ~locus:(Diag.Net i)
                 "Kth bound %g is not positive finite" kth.(i))
          else None)
        (List.init (Array.length kth) Fun.id)
    else if Netlist.num_nets netlist = 0 then []
    else
      [
        err ~code:26
          "noise bound %.4g V is at or below the LSK table floor: no positive \
           crosstalk budget exists (LSK bound %g)"
          config.noise_bound_v lsk_budget;
      ]
  in
  let panels =
    if Array.length kth = 0 then []
    else
      Trace.span "analyze.panels" (fun () ->
          panels_of config grid netlist sensitivity kth)
  in
  let findings =
    Diag.sort
      (cut_findings cuts
      @ budget_findings
      @ panel_findings config grid sens kth panels)
  in
  let t =
    {
      netlist;
      grid;
      demand_h;
      demand_v;
      cuts;
      graph;
      panels;
      lsk_budget;
      kth;
      findings;
    }
  in
  List.iter
    (fun c -> if c.forced > c.capacity then Metrics.incr m_cut_overflows)
    cuts;
  Metrics.set g_components (float_of_int graph.components);
  Metrics.set g_max_clique (float_of_int graph.max_clique);
  Metrics.set g_shield_lb (float_of_int (shield_lb_total t));
  Metrics.set g_peak_demand (peak_demand_pct t);
  Metrics.add m_errors (Diag.count Diag.Error findings);
  Metrics.add m_warnings (Diag.count Diag.Warning findings);
  t

let has_errors t = Diag.has_errors t.findings

let pp_summary fmt t =
  let over = List.length (List.filter (fun c -> c.forced > c.capacity) t.cuts) in
  Format.fprintf fmt
    "audit %s: %d nets on %dx%d; %d/%d cuts over capacity, peak predicted \
     demand %.0f%% of tracks; sensitivity graph: %d edges, %d components, max \
     degree %d, greedy clique %d; %d prospective panels, shield lower bound \
     %d; %a"
    t.netlist.Netlist.name (Netlist.num_nets t.netlist) (Grid.width t.grid)
    (Grid.height t.grid) over (List.length t.cuts) (peak_demand_pct t)
    t.graph.edges t.graph.components t.graph.max_degree t.graph.max_clique
    (List.length t.panels) (shield_lb_total t) Diag.pp_summary t.findings
