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

(* per-(region, direction) track-pool state *)
type pools = {
  use_h : int array;  (** tracks taken by committed routes *)
  use_v : int array;
  nss_h : float array;  (** predicted shield tracks (Per_net model) *)
  nss_v : float array;
  hist_h : float array;  (** PathFinder history price *)
  hist_v : float array;
}

let use_of p = function Dir.H -> p.use_h | Dir.V -> p.use_v
let nss_of p = function Dir.H -> p.nss_h | Dir.V -> p.nss_v
let hist_of p = function Dir.H -> p.hist_h | Dir.V -> p.hist_v

(* rip-up and re-route rounds, and the history price added per round of
   sustained overuse *)
let max_iters = 12
let history_gain = 0.4

let route ~grid ~netlist ?(shield_model = Id_router.No_shields)
    ?(deadline = Eda_guard.Deadline.none) () =
  Trace.span_args "nc_router.route"
    [ ("nets", string_of_int (Array.length netlist.Netlist.nets)) ]
  @@ fun () ->
  let nets = netlist.Netlist.nets in
  let n_regions = Grid.num_regions grid in
  let pools =
    {
      use_h = Array.make n_regions 0;
      use_v = Array.make n_regions 0;
      nss_h = Array.make n_regions 0.0;
      nss_v = Array.make n_regions 0.0;
      hist_h = Array.make n_regions 0.0;
      hist_v = Array.make n_regions 0.0;
    }
  in
  let sdemand =
    match shield_model with
    | Id_router.Per_net { keff; rate; kth } ->
        Array.map (fun n -> Id_router.shield_demand ~keff ~rate (kth n.Net.id)) nets
    | Id_router.No_shields -> [||]
  in
  let load r dir =
    float_of_int (use_of pools dir).(r) +. (nss_of pools dir).(r)
  in
  let cap r dir = float_of_int (Grid.cap grid (Grid.region_pt grid r) dir) in
  (* PathFinder pricing: base wirelength + present overuse + history *)
  let pres_fac = ref 0.6 in
  let slot_price r dir =
    let over = load r dir +. 1.0 -. cap r dir in
    (if over > 0.0 then !pres_fac *. over else 0.0) +. (hist_of pools dir).(r)
  in
  let commit route delta =
    let net = Route.net route in
    List.iter
      (fun (r, dir) ->
        let use = use_of pools dir in
        use.(r) <- use.(r) + delta;
        if Array.length sdemand > 0 then begin
          let nss = nss_of pools dir in
          nss.(r) <- nss.(r) +. (float_of_int delta *. sdemand.(net))
        end)
      (Route.occupied grid route)
  in
  (* Dijkstra from the current tree (multi-source) to [target] region;
     returns the new path's edges. *)
  let dist = Array.make n_regions infinity in
  let via = Array.make n_regions (-1) in
  let search ~net sources target =
    Metrics.incr m_searches;
    Array.fill dist 0 n_regions infinity;
    Array.fill via 0 n_regions (-1);
    let heap = Heap.create () in
    List.iter
      (fun r ->
        dist.(r) <- 0.0;
        Heap.push heap 0.0 r)
      sources;
    let finished = ref false in
    while (not !finished) && not (Heap.is_empty heap) do
      let negd, r = Heap.pop_max heap in
      let d = -.negd in
      if d <= dist.(r) +. 1e-12 then begin
        if r = target then finished := true
        else
          List.iter
            (fun e ->
              let a, b = Grid.edge_ends grid e in
              let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
              let other = if ra = r then rb else ra in
              let dir = Grid.edge_dir grid e in
              let step = 1.0 +. slot_price r dir +. slot_price other dir in
              let nd = d +. step in
              if nd < dist.(other) -. 1e-12 then begin
                dist.(other) <- nd;
                via.(other) <- e;
                Heap.push heap (-.nd) other
              end)
            (Grid.incident_edges grid (Grid.region_pt grid r))
      end
    done;
    if dist.(target) = infinity then
      Eda_guard.Error.raise_ (Eda_guard.Error.Unreachable { net; region = target });
    (* walk back to any source *)
    let rec back r acc =
      if via.(r) = -1 then acc
      else begin
        let e = via.(r) in
        let a, b = Grid.edge_ends grid e in
        let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
        let prev = if ra = r then rb else ra in
        back prev (e :: acc)
      end
    in
    back target []
  in
  let route_net net =
    let pin_regions =
      Net.pins net |> List.map (Grid.region_id grid) |> List.sort_uniq compare
    in
    match pin_regions with
    | [] | [ _ ] -> Route.of_edges grid ~net:net.Net.id []
    | first :: rest ->
        (* connect pins in MST order so each search targets a near pin *)
        let pts = Array.of_list (List.map (Grid.region_pt grid) (first :: rest)) in
        let order =
          Rmst.tree pts
          |> List.map (fun (i, j) -> (Grid.region_id grid pts.(i), Grid.region_id grid pts.(j)))
        in
        let tree_regions = Hashtbl.create 16 in
        Hashtbl.replace tree_regions first ();
        let edges = ref [] in
        List.iter
          (fun (_, target) ->
            if not (Hashtbl.mem tree_regions target) then begin
              let sources = List.of_seq (Hashtbl.to_seq_keys tree_regions) in
              let path = search ~net:net.Net.id sources target in
              List.iter
                (fun e ->
                  let a, b = Grid.edge_ends grid e in
                  Hashtbl.replace tree_regions (Grid.region_id grid a) ();
                  Hashtbl.replace tree_regions (Grid.region_id grid b) ())
                path;
              edges := path @ !edges
            end)
          order;
        Route.of_edges grid ~net:net.Net.id !edges
  in
  (* initial routing *)
  let routes = Array.map route_net nets in
  Array.iter (fun r -> commit r 1) routes;
  (* negotiation rounds *)
  let overused () =
    let acc = ref [] in
    for r = 0 to n_regions - 1 do
      List.iter
        (fun dir -> if load r dir > cap r dir +. 1e-9 then acc := (r, dir) :: !acc)
        Dir.all
    done;
    !acc
  in
  let iter = ref 0 in
  let continue_ = ref true in
  let history_total () =
    let s = ref 0.0 in
    for r = 0 to n_regions - 1 do
      s := !s +. pools.hist_h.(r) +. pools.hist_v.(r)
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
    match overused () with
    | [] -> continue_ := false
    | over ->
        let bad = Hashtbl.create 64 in
        List.iter (fun slot -> Hashtbl.replace bad slot ()) over;
        (* punish sustained congestion, raise the present-price pressure *)
        List.iter
          (fun (r, dir) -> (hist_of pools dir).(r) <- (hist_of pools dir).(r) +. history_gain)
          over;
        pres_fac := Float.min 64.0 (!pres_fac *. 1.7);
        Metrics.observe h_overused (float_of_int (List.length over));
        Metrics.set g_pres_fac !pres_fac;
        Metrics.set g_history (history_total ());
        Trace.instant
          ~args:
            [
              ("iter", string_of_int !iter);
              ("overused", string_of_int (List.length over));
              ("pres_fac", Printf.sprintf "%.3f" !pres_fac);
              ("history_total", Printf.sprintf "%.3f" (history_total ()));
            ]
          "nc_router.iteration";
        Array.iteri
          (fun i route ->
            let guilty =
              List.exists (fun slot -> Hashtbl.mem bad slot) (Route.occupied grid route)
            in
            if guilty then begin
              Metrics.incr m_reroutes;
              commit route (-1);
              let fresh = route_net nets.(i) in
              routes.(i) <- fresh;
              commit fresh 1
            end)
          routes
  done;
  routes
