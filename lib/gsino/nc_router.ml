module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Dir = Eda_grid.Dir
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Rmst = Eda_steiner.Rmst
module Heap = Eda_util.Heap
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

(* negotiation telemetry: present/history price evolution per iteration *)
let m_iterations = Metrics.counter "nc_router.iterations"
let m_reroutes = Metrics.counter "nc_router.reroutes"
let m_searches = Metrics.counter "nc_router.searches"
let h_overused = Metrics.histogram "nc_router.overused_slots"
let g_pres_fac = Metrics.gauge "nc_router.pres_fac"
let g_history = Metrics.gauge "nc_router.history_total"

(* rip-up and re-route rounds, and the history price added per round of
   sustained overuse *)
let max_iters = 12
let history_gain = 0.4

(* Every array below is per call: track pools are indexed by [Route]'s
   slot ints, regions and edges by their grid ids.  Routes depend on how
   heap ties break, so the search keeps the order of the list-based
   router it replaced: sources are pushed in the iteration order of the
   tree-region [Hashtbl], neighbours are relaxed in [Grid.incident_edges]
   order, and a step is priced [1.0 +. p r +. p other]. *)
let route ~grid ~netlist ?(shield_model = Id_router.No_shields)
    ?(deadline = Eda_guard.Deadline.none) () =
  Trace.span_args "nc_router.route"
    [ ("nets", string_of_int (Array.length netlist.Netlist.nets)) ]
  @@ fun () ->
  let nets = netlist.Netlist.nets in
  let n_regions = Grid.num_regions grid in
  let n_slots = Route.num_slots grid in
  (* per-slot track-pool state *)
  let use = Array.make n_slots 0 (* tracks taken by committed routes *)
  and nss = Array.make n_slots 0.0 (* predicted shield tracks (Per_net model) *)
  and hist = Array.make n_slots 0.0 (* PathFinder history price *)
  and cap = Array.make n_slots 0.0 in
  for r = 0 to n_regions - 1 do
    List.iter
      (fun dir ->
        cap.(Route.slot grid r dir) <-
          float_of_int (Grid.cap grid (Grid.region_pt grid r) dir))
      Dir.all
  done;
  let sdemand =
    match shield_model with
    | Id_router.Per_net { keff; rate; kth } ->
        Array.map (fun n -> Id_router.shield_demand ~keff ~rate (kth n.Net.id)) nets
    | Id_router.No_shields -> [||]
  in
  let load s = float_of_int use.(s) +. nss.(s) in
  (* PathFinder pricing: base wirelength + present overuse + history.  A
     slot's price is cached and recomputed whenever its use, shield
     demand, history or the present factor changes. *)
  let pres_fac = ref 0.6 in
  let price = Array.make n_slots 0.0 in
  let reprice s =
    let over = load s +. 1.0 -. cap.(s) in
    price.(s) <- (if over > 0.0 then !pres_fac *. over else 0.0) +. hist.(s)
  in
  let reprice_all () =
    for s = 0 to n_slots - 1 do
      reprice s
    done
  in
  reprice_all ();
  (* a route's slots, each once, through a stamp array *)
  let stamp = Array.make n_slots 0 and mark = ref 0 in
  let commit route delta =
    let net = Route.net route in
    incr mark;
    let m = !mark in
    Route.iter_slots grid route (fun s ->
        if stamp.(s) <> m then begin
          stamp.(s) <- m;
          use.(s) <- use.(s) + delta;
          if Array.length sdemand > 0 then
            nss.(s) <- nss.(s) +. (float_of_int delta *. sdemand.(net));
          reprice s
        end)
  in
  (* each edge's two regions, as [Grid.edge_ends] orders them *)
  let n_edges = Grid.num_edges grid in
  let end_a = Array.make n_edges 0 and end_b = Array.make n_edges 0 in
  for e = 0 to n_edges - 1 do
    let a, b = Grid.edge_ends grid e in
    end_a.(e) <- Grid.region_id grid a;
    end_b.(e) <- Grid.region_id grid b
  done;
  (* region adjacency in [Grid.incident_edges] order: region r's steps
     are entries adj_start.(r) to adj_start.(r + 1) - 1, each a
     neighbour, the edge to it and the slots of r and of the neighbour
     in the edge's direction *)
  let adj_start = Array.make (n_regions + 1) 0 in
  let incident =
    Array.init n_regions (fun r -> Grid.incident_edges grid (Grid.region_pt grid r))
  in
  Array.iteri (fun r es -> adj_start.(r + 1) <- adj_start.(r) + List.length es) incident;
  let n_adj = adj_start.(n_regions) in
  let adj_nb = Array.make n_adj 0 and adj_edge = Array.make n_adj 0 in
  let adj_slot = Array.make n_adj 0 and adj_nb_slot = Array.make n_adj 0 in
  Array.iteri
    (fun r es ->
      List.iteri
        (fun j e ->
          let k = adj_start.(r) + j in
          let other = if end_a.(e) = r then end_b.(e) else end_a.(e) in
          let dir = Grid.edge_dir grid e in
          adj_nb.(k) <- other;
          adj_edge.(k) <- e;
          adj_slot.(k) <- Route.slot grid r dir;
          adj_nb_slot.(k) <- Route.slot grid other dir)
        es)
    incident;
  (* Dijkstra from the current tree (multi-source) to [target] region,
     leaving the path in [via]; one heap and one dist/via pair serve every
     search. *)
  let dist = Array.make n_regions infinity in
  let via = Array.make n_regions (-1) in
  let heap = Heap.create () in
  let push_source r () =
    dist.(r) <- 0.0;
    Heap.push heap 0.0 r
  in
  let search ~net tree target =
    Metrics.incr m_searches;
    Array.fill dist 0 n_regions infinity;
    Array.fill via 0 n_regions (-1);
    Heap.clear heap;
    Hashtbl.iter push_source tree;
    let finished = ref false in
    while (not !finished) && not (Heap.is_empty heap) do
      let d = -.Heap.top_key heap and r = Heap.top heap in
      Heap.pop heap;
      if d <= dist.(r) +. 1e-12 then begin
        if r = target then finished := true
        else
          for k = adj_start.(r) to adj_start.(r + 1) - 1 do
            let other = adj_nb.(k) in
            let step = 1.0 +. price.(adj_slot.(k)) +. price.(adj_nb_slot.(k)) in
            let nd = d +. step in
            if nd < dist.(other) -. 1e-12 then begin
              dist.(other) <- nd;
              via.(other) <- adj_edge.(k);
              Heap.push heap (-.nd) other
            end
          done
      end
    done;
    if dist.(target) = infinity then
      Eda_guard.Error.raise_ (Eda_guard.Error.Unreachable { net; region = target })
  in
  (* each net's first pin region and the targets of its connections in
     MST order, so each search targets a near pin; -1 when the net needs
     no edge *)
  let first = Array.make (Array.length nets) (-1) in
  let targets =
    Array.mapi
      (fun i net ->
        match
          Net.pins net |> List.map (Grid.region_id grid) |> List.sort_uniq compare
        with
        | [] | [ _ ] -> [||]
        | r0 :: _ as regions ->
            first.(i) <- r0;
            let pts = Array.of_list (List.map (Grid.region_pt grid) regions) in
            Rmst.tree pts
            |> List.map (fun (_, j) -> Grid.region_id grid pts.(j))
            |> Array.of_list)
      nets
  in
  (* a path visits each region at most once *)
  let path = Array.make n_regions 0 in
  let route_net i =
    let net = nets.(i).Net.id in
    if first.(i) < 0 then Route.of_edges grid ~net []
    else begin
      let tree = Hashtbl.create 16 in
      Hashtbl.replace tree first.(i) ();
      let edges = ref [] in
      Array.iter
        (fun target ->
          if not (Hashtbl.mem tree target) then begin
            search ~net tree target;
            (* walk back to the tree, then add the path source first *)
            let len = ref 0 and r = ref target in
            while via.(!r) <> -1 do
              let e = via.(!r) in
              path.(!len) <- e;
              incr len;
              r := if end_a.(e) = !r then end_b.(e) else end_a.(e)
            done;
            for j = !len - 1 downto 0 do
              let e = path.(j) in
              Hashtbl.replace tree end_a.(e) ();
              Hashtbl.replace tree end_b.(e) ();
              edges := e :: !edges
            done
          end)
        targets.(i);
      Route.of_edges grid ~net !edges
    end
  in
  (* initial routing: every net on empty pools, then every commit *)
  let routes = Array.init (Array.length nets) route_net in
  Array.iter (fun r -> commit r 1) routes;
  (* negotiation rounds *)
  let over = Array.make n_slots false in
  let iter = ref 0 in
  let continue_ = ref true in
  let history_total () =
    let s = ref 0.0 in
    for r = 0 to n_regions - 1 do
      s := !s +. hist.(Route.slot grid r Dir.H) +. hist.(Route.slot grid r Dir.V)
    done;
    !s
  in
  (* checkpoint: the initial routing above always completes (it is what
     makes every net connected); negotiation rounds only re-price and
     re-route whole nets, so stopping between rounds leaves a complete —
     possibly congested — routing *)
  while
    !continue_ && !iter < max_iters
    && not (Eda_guard.Deadline.check deadline ~phase:"route")
  do
    incr iter;
    Metrics.incr m_iterations;
    (* the round's overused slots, each punished for sustained congestion *)
    let n_over = ref 0 in
    for s = 0 to n_slots - 1 do
      let o = load s > cap.(s) +. 1e-9 in
      over.(s) <- o;
      if o then begin
        incr n_over;
        hist.(s) <- hist.(s) +. history_gain
      end
    done;
    if !n_over = 0 then continue_ := false
    else begin
      (* raise the present-price pressure *)
      pres_fac := Float.min 64.0 (!pres_fac *. 1.7);
      reprice_all ();
      let total = history_total () in
      Metrics.observe h_overused (float_of_int !n_over);
      Metrics.set g_pres_fac !pres_fac;
      Metrics.set g_history total;
      Trace.instant
        ~args:
          [
            ("iter", string_of_int !iter);
            ("overused", string_of_int !n_over);
            ("pres_fac", Printf.sprintf "%.3f" !pres_fac);
            ("history_total", Printf.sprintf "%.3f" total);
          ]
        "nc_router.iteration";
      Array.iteri
        (fun i route ->
          let guilty = ref false in
          Route.iter_slots grid route (fun s -> if over.(s) then guilty := true);
          if !guilty then begin
            Metrics.incr m_reroutes;
            commit route (-1);
            let fresh = route_net i in
            routes.(i) <- fresh;
            commit fresh 1
          end)
        routes
    end
  done;
  routes
