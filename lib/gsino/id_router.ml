open Eda_geom
module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Dir = Eda_grid.Dir
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Heap = Eda_util.Heap
module Rsmt = Eda_steiner.Rsmt
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

(* deletion-loop telemetry (§5: ID routing dominates runtime; these let a
   profile see why for a given instance) *)
let m_iterations = Metrics.counter "id_router.iterations"
let m_deletions = Metrics.counter "id_router.edge_deletions"
let m_essential = Metrics.counter "id_router.essential_edges"
let m_reweights = Metrics.counter "id_router.reweights"
let m_direct_nets = Metrics.counter "id_router.direct_nets"
let m_overflowed = Metrics.counter "id_router.overflowed_regions"
let h_candidates = Metrics.histogram "id_router.candidate_edges"

module Journal = Eda_obs.Journal

type weights = { alpha : float; beta : float; gamma : float }

(* Regions of slack around each net's pin bounding box: the detour
   freedom a candidate route gets. *)
let bbox_expand = 1

type shield_model =
  | No_shields
  | Per_net of { keff : Eda_sino.Keff.params; rate : float; kth : int -> float }

let shield_demand ~keff ~rate kth =
  if kth <= 0.0 then invalid_arg "Id_router.shield_demand: non-positive kth";
  (* expected total coupling of an unshielded segment at this rate *)
  let kbar = rate *. Eda_sino.Keff.max_feasible_k keff in
  if kth >= kbar then 0.0
  else begin
    let layers =
      Float.ceil (log (kth /. kbar) /. log keff.Eda_sino.Keff.shield_block)
    in
    (* price one full track per predicted layer: reservation must outbid
       the cost of packing another net into the region *)
    Float.min 6.0 layers
  end

(* ------------------------------------------------------------------ *)
(* Direct RSMT embedding, used for single-region nets' trivial routes
   and as the big-net guard. *)

let l_path grid p q =
  (* horizontal leg at p.y, then vertical leg at q.x *)
  let edges = ref [] in
  let x0 = min p.Point.x q.Point.x and x1 = max p.Point.x q.Point.x in
  for x = x0 to x1 - 1 do
    edges := Grid.edge_id grid (Point.make x p.Point.y) Dir.H :: !edges
  done;
  let y0 = min p.Point.y q.Point.y and y1 = max p.Point.y q.Point.y in
  for y = y0 to y1 - 1 do
    edges := Grid.edge_id grid (Point.make q.Point.x y) Dir.V :: !edges
  done;
  !edges

let steiner_route grid net =
  let pins = Array.of_list (Net.pins net) in
  let tree = Rsmt.rectilinear_edges pins in
  let edges = List.concat_map (fun (p, q) -> l_path grid p q) tree in
  Route.of_edges grid ~net:net.Net.id edges

(* ------------------------------------------------------------------ *)
(* Per-net connection-graph state. *)

type net_state = {
  idx : int;
  pin_regions : int array;  (** deduplicated *)
  alive : (int, bool ref) Hashtbl.t;  (** edge -> essential? *)
  incident : (int, int list) Hashtbl.t;  (** region -> static incident edges *)
  f_wl : (int, float) Hashtbl.t;  (** edge -> static detour factor *)
  mem : (int, int) Hashtbl.t;
      (** (2·region + dir) -> live incident edges: region membership for
          the per-net shield-demand accounting *)
}

let region_dist grid r1 r2 =
  Point.manhattan (Grid.region_pt grid r1) (Grid.region_pt grid r2)

let build_state grid net rsmt_len edges =
  let pin_regions =
    Net.pins net
    |> List.map (Grid.region_id grid)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let alive = Hashtbl.create (List.length edges) in
  let incident = Hashtbl.create 64 in
  let f_wl = Hashtbl.create (List.length edges) in
  let add_incident r e =
    Hashtbl.replace incident r (e :: Option.value (Hashtbl.find_opt incident r) ~default:[])
  in
  let rsmt = float_of_int (max 1 rsmt_len) in
  List.iter
    (fun e ->
      Hashtbl.replace alive e (ref false);
      let a, b = Grid.edge_ends grid e in
      let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
      add_incident ra e;
      add_incident rb e;
      (* detour factor: cheapest pin-to-pin connection forced through e,
         relative to the RSMT estimate *)
      let best = ref max_int in
      Array.iter
        (fun rp ->
          Array.iter
            (fun rq ->
              let via1 = region_dist grid rp ra + 1 + region_dist grid rb rq in
              let via2 = region_dist grid rp rb + 1 + region_dist grid ra rq in
              best := min !best (min via1 via2))
            pin_regions)
        pin_regions;
      let f = Float.max 0.0 ((float_of_int !best -. rsmt) /. rsmt) in
      Hashtbl.replace f_wl e f)
    edges;
  {
    idx = net.Net.id;
    pin_regions;
    alive;
    incident;
    f_wl;
    mem = Hashtbl.create 32;
  }

(* Are all pins still connected if [skip] is ignored?  BFS over alive
   edges, marks in a stamped scratch array to avoid re-allocation. *)
let connected_without grid st ~mark ~stamp ~skip =
  let npins = Array.length st.pin_regions in
  if npins <= 1 then true
  else begin
    let start = st.pin_regions.(0) in
    let q = Queue.create () in
    mark.(start) <- stamp;
    Queue.add start q;
    let seen_pins = ref 1 in
    let is_pin r = Array.exists (fun p -> p = r) st.pin_regions in
    (try
       while not (Queue.is_empty q) do
         let r = Queue.take q in
         List.iter
           (fun e ->
             if e <> skip && Hashtbl.mem st.alive e then begin
               let a, b = Grid.edge_ends grid e in
               let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
               let other = if ra = r then rb else ra in
               if mark.(other) <> stamp then begin
                 mark.(other) <- stamp;
                 if is_pin other then begin
                   incr seen_pins;
                   if !seen_pins = npins then raise Exit
                 end;
                 Queue.add other q
               end
             end)
           (Option.value (Hashtbl.find_opt st.incident r) ~default:[])
       done
     with Exit -> ());
    !seen_pins = npins
  end

(* Prune to the minimal Steiner tree: repeatedly drop degree-1 regions
   that are not pins. *)
let prune_tree grid st =
  let deg = Hashtbl.create 32 in
  let bump r d =
    Hashtbl.replace deg r (d + Option.value (Hashtbl.find_opt deg r) ~default:0)
  in
  let edge_list () = List.of_seq (Hashtbl.to_seq_keys st.alive) in
  List.iter
    (fun e ->
      let a, b = Grid.edge_ends grid e in
      bump (Grid.region_id grid a) 1;
      bump (Grid.region_id grid b) 1)
    (edge_list ());
  let is_pin r = Array.exists (fun p -> p = r) st.pin_regions in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        if Hashtbl.mem st.alive e then begin
          let a, b = Grid.edge_ends grid e in
          let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
          let leaf r =
            Option.value (Hashtbl.find_opt deg r) ~default:0 = 1 && not (is_pin r)
          in
          if leaf ra || leaf rb then begin
            Hashtbl.remove st.alive e;
            bump ra (-1);
            bump rb (-1);
            changed := true
          end
        end)
      (edge_list ())
  done

(* ------------------------------------------------------------------ *)

(* Per-net preparation outcome: everything computable without touching
   the shared occupancy arrays, so the prep fans out over a pool. *)
type prep =
  | P_direct of Route.t  (** big net: direct RSMT embedding *)
  | P_state of net_state * int list  (** connection graph + candidate edges *)
  | P_empty  (** single-region net *)

let route ~grid ~netlist ~weights ?(shield_model = No_shields)
    ?(big_net_threshold = 5000) ?(deadline = Eda_guard.Deadline.none) ?pool () =
  Trace.span_args "id_router.route"
    [ ("nets", string_of_int (Array.length netlist.Netlist.nets)) ]
  @@ fun () ->
  let nets = netlist.Netlist.nets in
  let n_edges = Grid.num_edges grid in
  let n_regions = Grid.num_regions grid in
  (* global live-occupancy: per-edge net count, and its per-region,
     per-direction incidence sums (HU(R) = incidence/2) *)
  let occ = Array.make n_edges 0 in
  let inc_h = Array.make n_regions 0 in
  let inc_v = Array.make n_regions 0 in
  let inc_of dir = match dir with Dir.H -> inc_h | Dir.V -> inc_v in
  (* per-region predicted shield tracks (Per_net model; all zero under
     No_shields) *)
  let nss_h = Array.make n_regions 0.0 in
  let nss_v = Array.make n_regions 0.0 in
  let nss_arr dir = match dir with Dir.H -> nss_h | Dir.V -> nss_v in
  let sdemand =
    match shield_model with
    | Per_net { keff; rate; kth } ->
        Array.map (fun n -> shield_demand ~keff ~rate (kth n.Net.id)) nets
    | No_shields -> [||]
  in
  let account e delta =
    occ.(e) <- occ.(e) + delta;
    let a, b = Grid.edge_ends grid e in
    let inc = inc_of (Grid.edge_dir grid e) in
    inc.(Grid.region_id grid a) <- inc.(Grid.region_id grid a) + delta;
    inc.(Grid.region_id grid b) <- inc.(Grid.region_id grid b) + delta
  in
  (* membership maintenance: a net contributes its shield demand to every
     (region, dir) where it still has a live incident edge *)
  let dir_idx = function Dir.H -> 0 | Dir.V -> 1 in
  let member_bump st e delta =
    if Array.length sdemand > 0 then begin
      let dir = Grid.edge_dir grid e in
      let a, b = Grid.edge_ends grid e in
      List.iter
        (fun p ->
          let r = Grid.region_id grid p in
          let key = (2 * r) + dir_idx dir in
          let old = Option.value (Hashtbl.find_opt st.mem key) ~default:0 in
          let now = old + delta in
          Hashtbl.replace st.mem key now;
          let nss = nss_arr dir in
          if old = 0 && now = 1 then nss.(r) <- nss.(r) +. sdemand.(st.idx)
          else if old = 1 && now = 0 then nss.(r) <- nss.(r) -. sdemand.(st.idx))
        [ a; b ]
    end
  in
  let weight_of st e =
    let dir = Grid.edge_dir grid e in
    let a, b = Grid.edge_ends grid e in
    let hd = ref 0.0 and ofr = ref 0.0 in
    List.iter
      (fun p ->
        let r = Grid.region_id grid p in
        let nns = (inc_of dir).(r) / 2 in
        let hu = float_of_int nns +. (nss_arr dir).(r) in
        let cap = float_of_int (Grid.cap grid p dir) in
        hd := Float.max !hd (hu /. cap);
        ofr := Float.max !ofr (Float.max 0.0 ((hu -. cap) /. cap)))
      [ a; b ];
    (weights.alpha *. Hashtbl.find st.f_wl e)
    +. (weights.beta *. !hd) +. (weights.gamma *. !ofr)
  in
  (* Build per-net states; big or trivial nets take direct routes.  The
     candidate evaluation (bbox clip, candidate edge sweep, per-edge
     detour factors — the O(pins² · edges) part) only reads the grid and
     the net, so it fans out over the pool; the shared occupancy
     accounting is then replayed sequentially in net order, making the
     initial demand state identical to the single-domain code. *)
  (* Journal attribution: the deletion loop runs millions of iterations,
     so per-entity counts accumulate in flat arrays (two increments per
     event when enabled, nothing when not) and fold into one net.route /
     region.reweight event per entity after the loop — never one journal
     event per reweight. *)
  let jnl = Journal.enabled () in
  let n_nets = Array.length nets in
  let net_pops = if jnl then Array.make n_nets 0 else [||] in
  let net_deletions = if jnl then Array.make n_nets 0 else [||] in
  let net_reweights = if jnl then Array.make n_nets 0 else [||] in
  let net_essential = if jnl then Array.make n_nets 0 else [||] in
  let region_rw_h = if jnl then Array.make n_regions 0 else [||] in
  let region_rw_v = if jnl then Array.make n_regions 0 else [||] in
  let direct = Hashtbl.create 16 in
  let preps =
    Eda_exec.map_array ?pool ~name:"route.candidates"
      (fun net ->
        let bounds = Rect.make 0 0 (Grid.width grid - 1) (Grid.height grid - 1) in
        let bbox = Rect.clip (Rect.expand (Net.bbox net) bbox_expand) ~within:bounds in
        if Rect.cells bbox > big_net_threshold then begin
          Metrics.incr m_direct_nets;
          P_direct (steiner_route grid net)
        end
        else begin
          match Grid.edges_within grid bbox with
          | [] -> P_empty (* single-region net: empty route *)
          | edges ->
              Metrics.observe h_candidates (float_of_int (List.length edges));
              let pins = Array.of_list (Net.pins net) in
              P_state (build_state grid net (Rsmt.length pins) edges, edges)
        end)
      nets
  in
  let states =
    Array.mapi
      (fun i prep ->
        let net = nets.(i) in
        match prep with
        | P_direct r ->
            Hashtbl.replace direct net.Net.id r;
            Array.iter (fun e -> account e 1) (Route.edges r);
            if Array.length sdemand > 0 then
              List.iter
                (fun (reg, d) ->
                  let nss = nss_arr d in
                  nss.(reg) <- nss.(reg) +. sdemand.(net.Net.id))
                (Route.occupied grid r);
            None
        | P_empty -> None
        | P_state (st, edges) ->
            List.iter
              (fun e ->
                account e 1;
                member_bump st e 1)
              edges;
            Some st)
      preps
  in
  (* Seed the heap with every (net, edge) pair. *)
  let heap = Heap.create () in
  Array.iter
    (function
      | None -> ()
      | Some st ->
          Hashtbl.iter (fun e _ -> Heap.push heap (weight_of st e) (st.idx, e)) st.alive)
    states;
  let mark = Array.make n_regions 0 in
  let stamp = ref 0 in
  let iters = ref 0 in
  (* checkpoint: every pop leaves all nets connected (deletion is the
     only mutation and is connectivity-checked), so stopping mid-heap
     yields valid, merely less-deleted trees; prune_tree below still
     runs *)
  while
    (not (Heap.is_empty heap))
    && not (Eda_guard.Deadline.check deadline ~phase:"route")
  do
    Metrics.incr m_iterations;
    incr iters;
    (* total is unknowable up front (reweighed edges re-enter the heap),
       so the heartbeat reports a bare iteration count *)
    Eda_obs.Progress.tick ~items_done:!iters ();
    let w_old, (i, e) = Heap.pop_max heap in
    if jnl then net_pops.(i) <- net_pops.(i) + 1;
    match states.(i) with
    | None -> ()
    | Some st -> (
        match Hashtbl.find_opt st.alive e with
        | None -> () (* already deleted *)
        | Some essential when !essential -> ()
        | Some essential ->
            let w_cur = weight_of st e in
            if w_cur < w_old -. 1e-9 then begin
              Metrics.incr m_reweights;
              if jnl then begin
                net_reweights.(i) <- net_reweights.(i) + 1;
                let rw =
                  match Grid.edge_dir grid e with
                  | Dir.H -> region_rw_h
                  | Dir.V -> region_rw_v
                in
                let a, b = Grid.edge_ends grid e in
                let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
                rw.(ra) <- rw.(ra) + 1;
                if rb <> ra then rw.(rb) <- rw.(rb) + 1
              end;
              Heap.push heap w_cur (i, e)
            end
            else begin
              incr stamp;
              if connected_without grid st ~mark ~stamp:!stamp ~skip:e then begin
                Metrics.incr m_deletions;
                if jnl then net_deletions.(i) <- net_deletions.(i) + 1;
                Hashtbl.remove st.alive e;
                account e (-1);
                member_bump st e (-1)
              end
              else begin
                Metrics.incr m_essential;
                if jnl then net_essential.(i) <- net_essential.(i) + 1;
                essential := true
              end
            end)
  done;
  (* post-routing overflow census: regions whose demand (nets + predicted
     shields) exceeds capacity in some direction *)
  List.iter
    (fun dir ->
      let inc = inc_of dir and nss = nss_arr dir in
      for r = 0 to n_regions - 1 do
        let hu = float_of_int (inc.(r) / 2) +. nss.(r) in
        let cap = float_of_int (Grid.cap grid (Grid.region_pt grid r) dir) in
        if hu > cap then Metrics.incr m_overflowed
      done)
    Dir.all;
  if jnl then begin
    Array.iteri
      (fun i net ->
        let outcome =
          if Hashtbl.mem direct net.Net.id then "direct"
          else match states.(i) with None -> "empty" | Some _ -> "routed"
        in
        Journal.record "net.route"
          [ ("net", string_of_int net.Net.id) ]
          ~data:
            [
              ("pops", float_of_int net_pops.(i));
              ("deletions", float_of_int net_deletions.(i));
              ("reweights", float_of_int net_reweights.(i));
              ("essential", float_of_int net_essential.(i));
            ]
          ~outcome)
      nets;
    List.iter
      (fun dir ->
        let rw =
          match dir with Dir.H -> region_rw_h | Dir.V -> region_rw_v
        in
        Array.iteri
          (fun r n ->
            if n > 0 then
              Journal.record "region.reweight"
                [ ("region", string_of_int r); ("dir", Dir.to_string dir) ]
                ~data:[ ("reweights", float_of_int n) ])
          rw)
      Dir.all
  end;
  (* Safety prune (the deletion loop already leaves a Steiner tree; this
     guards against floating-point ties) and route construction. *)
  Array.mapi
    (fun i net ->
      match states.(i) with
      | None -> (
          match Hashtbl.find_opt direct i with
          | Some r -> r
          | None -> Route.of_edges grid ~net:net.Net.id [])
      | Some st ->
          prune_tree grid st;
          Route.of_edges grid ~net:net.Net.id (List.of_seq (Hashtbl.to_seq_keys st.alive)))
    nets
