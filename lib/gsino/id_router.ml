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
(* Per-edge geometry, decoded once per [route] call so the deletion loop
   reads flat arrays instead of edge ids. *)

type geometry = {
  dir : int array;  (** 0 for an H edge, 1 for a V edge *)
  ra : int array;  (** region of the edge's first end *)
  rb : int array;  (** region of its second end *)
  cap_a : float array;  (** capacity of [ra] in the edge's direction *)
  cap_b : float array;  (** capacity of [rb] in the edge's direction *)
}

let geometry grid =
  let n = Grid.num_edges grid in
  let g =
    {
      dir = Array.make n 0;
      ra = Array.make n 0;
      rb = Array.make n 0;
      cap_a = Array.make n 0.0;
      cap_b = Array.make n 0.0;
    }
  in
  for e = 0 to n - 1 do
    let d = Grid.edge_dir grid e in
    let a, b = Grid.edge_ends grid e in
    g.dir.(e) <- (match d with Dir.H -> 0 | Dir.V -> 1);
    g.ra.(e) <- Grid.region_id grid a;
    g.rb.(e) <- Grid.region_id grid b;
    g.cap_a.(e) <- float_of_int (Grid.cap grid a d);
    g.cap_b.(e) <- float_of_int (Grid.cap grid b d)
  done;
  g

(* ------------------------------------------------------------------ *)
(* Per-net connection-graph state, in flat arrays.  A net's candidate
   edges are numbered locally (0 .. m-1) and its regions by their place
   in its bounding box, row-major, so a pop reads no hash table. *)

(* a local edge's status byte *)
let alive = '\000'
let essential = '\001'
let deleted = '\002'

type net_state = {
  idx : int;
  edges : int array;  (** local edge -> grid edge id *)
  la : int array;  (** local edge -> local region of its first end *)
  lb : int array;  (** local edge -> local region of its second end *)
  f_wl : float array;  (** local edge -> static detour factor *)
  status : Bytes.t;  (** local edge -> [alive], [essential] or [deleted] *)
  pins : int array;  (** local pin regions, deduplicated *)
  is_pin : Bytes.t;  (** local region -> ['\001'] for a pin region *)
  inc_start : int array;
      (** local region [r]'s incident local edges are
          [inc_edge.(inc_start.(r)) .. inc_edge.(inc_start.(r + 1) - 1)] *)
  inc_edge : int array;
  mem : int array;
      (** (2·local region + dir) -> live incident edges: region
          membership for the per-net shield-demand accounting *)
}

let build_state grid geo net bbox rsmt_len candidates =
  let w = Grid.width grid in
  let x0 = bbox.Rect.x0 and y0 = bbox.Rect.y0 and bw = Rect.width bbox in
  let n_local = Rect.cells bbox in
  let local r = (((r / w) - y0) * bw) + (r mod w) - x0 in
  (* Local numbering follows the iteration order of a table of the
     candidates built in [Grid.edges_within] order, which is the order
     the heap is seeded in.  Equal weights pop by heap position, so that
     order is part of every route. *)
  let edges =
    let tbl = Hashtbl.create (List.length candidates) in
    List.iter (fun e -> Hashtbl.replace tbl e ()) candidates;
    let a = Array.make (Hashtbl.length tbl) 0 and k = ref 0 in
    Hashtbl.iter
      (fun e () ->
        a.(!k) <- e;
        incr k)
      tbl;
    a
  in
  let m = Array.length edges in
  let la = Array.map (fun e -> local geo.ra.(e)) edges in
  let lb = Array.map (fun e -> local geo.rb.(e)) edges in
  let pin_regions =
    Net.pins net
    |> List.map (Grid.region_id grid)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let pins = Array.map local pin_regions in
  let is_pin = Bytes.make n_local '\000' in
  Array.iter (fun r -> Bytes.set is_pin r '\001') pins;
  let inc_start = Array.make (n_local + 1) 0 in
  let count r = inc_start.(r + 1) <- inc_start.(r + 1) + 1 in
  Array.iter count la;
  Array.iter count lb;
  for r = 1 to n_local do
    inc_start.(r) <- inc_start.(r) + inc_start.(r - 1)
  done;
  let next = Array.sub inc_start 0 n_local in
  let inc_edge = Array.make (2 * m) 0 in
  let place r j =
    inc_edge.(next.(r)) <- j;
    next.(r) <- next.(r) + 1
  in
  for j = 0 to m - 1 do
    place la.(j) j;
    place lb.(j) j
  done;
  (* detour factor: cheapest pin-to-pin connection forced through e,
     relative to the RSMT estimate.  Its two legs pick their pins
     independently, so the cheapest joins each end of e to the pin
     nearest that end. *)
  let nearest_pin r =
    let x = r mod w and y = r / w in
    Array.fold_left
      (fun best p -> min best (abs (x - (p mod w)) + abs (y - (p / w))))
      max_int pin_regions
  in
  let rsmt = float_of_int (max 1 rsmt_len) in
  let f_wl =
    Array.map
      (fun e ->
        let best = nearest_pin geo.ra.(e) + 1 + nearest_pin geo.rb.(e) in
        Float.max 0.0 ((float_of_int best -. rsmt) /. rsmt))
      edges
  in
  {
    idx = net.Net.id;
    edges;
    la;
    lb;
    f_wl;
    status = Bytes.make m alive;
    pins;
    is_pin;
    inc_start;
    inc_edge;
    mem = Array.make (2 * n_local) 0;
  }

(* Are all pins still connected if local edge [skip] is ignored?  BFS
   over the live edges on the caller's flat [queue] (one slot per
   region), marking local regions in a stamped scratch array: nothing is
   allocated per call. *)
let connected_without st ~mark ~queue ~stamp ~skip =
  let npins = Array.length st.pins in
  if npins <= 1 then true
  else begin
    let start = st.pins.(0) in
    mark.(start) <- stamp;
    queue.(0) <- start;
    let head = ref 0 and tail = ref 1 in
    let seen_pins = ref 1 in
    while !head < !tail && !seen_pins < npins do
      let r = queue.(!head) in
      incr head;
      let k = ref st.inc_start.(r) and stop = st.inc_start.(r + 1) in
      while !seen_pins < npins && !k < stop do
        let e = st.inc_edge.(!k) in
        incr k;
        if e <> skip && Bytes.get st.status e <> deleted then begin
          let other = if st.la.(e) = r then st.lb.(e) else st.la.(e) in
          if mark.(other) <> stamp then begin
            mark.(other) <- stamp;
            if Bytes.get st.is_pin other <> '\000' then incr seen_pins;
            queue.(!tail) <- other;
            incr tail
          end
        end
      done
    done;
    !seen_pins = npins
  end

(* Prune to the minimal Steiner tree: repeatedly drop degree-1 regions
   that are not pins. *)
let prune_tree st =
  let deg = Array.make (Bytes.length st.is_pin) 0 in
  let m = Array.length st.edges in
  let bump r d = deg.(r) <- deg.(r) + d in
  for j = 0 to m - 1 do
    if Bytes.get st.status j <> deleted then begin
      bump st.la.(j) 1;
      bump st.lb.(j) 1
    end
  done;
  let leaf r = deg.(r) = 1 && Bytes.get st.is_pin r = '\000' in
  let changed = ref true in
  while !changed do
    changed := false;
    for j = 0 to m - 1 do
      if Bytes.get st.status j <> deleted && (leaf st.la.(j) || leaf st.lb.(j))
      then begin
        Bytes.set st.status j deleted;
        bump st.la.(j) (-1);
        bump st.lb.(j) (-1);
        changed := true
      end
    done
  done

(* ------------------------------------------------------------------ *)

(* Per-net preparation outcome: everything computable without touching
   the shared occupancy arrays, so the prep fans out over a pool. *)
type prep =
  | P_direct of Route.t  (** big net: direct RSMT embedding *)
  | P_state of net_state  (** connection graph *)
  | P_empty  (** single-region net *)

(* [Float.max] for the router's weights, which are never NaN, without
   the call: the larger operand, and [y] on a tie unless it would turn a
   +0 into a -0. *)
let[@inline] fmax (x : float) y =
  if y > x || (y = x && Float.sign_bit x) then y else x

let route ~grid ~netlist ~weights ?(shield_model = No_shields)
    ?(big_net_threshold = 5000) ?(deadline = Eda_guard.Deadline.none) ?pool () =
  Trace.span_args "id_router.route"
    [ ("nets", string_of_int (Array.length netlist.Netlist.nets)) ]
  @@ fun () ->
  let nets = netlist.Netlist.nets in
  let n_regions = Grid.num_regions grid in
  let geo = geometry grid in
  (* global live-occupancy: per-region, per-direction incidence sums of
     the live edges (HU(R) = incidence/2) *)
  let inc_h = Array.make n_regions 0 in
  let inc_v = Array.make n_regions 0 in
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
  let shielded = Array.length sdemand > 0 in
  let account e delta =
    let inc = if geo.dir.(e) = 0 then inc_h else inc_v in
    let ra = geo.ra.(e) and rb = geo.rb.(e) in
    inc.(ra) <- inc.(ra) + delta;
    inc.(rb) <- inc.(rb) + delta
  in
  (* membership maintenance: a net contributes its shield demand to every
     (region, dir) where it still has a live incident edge; [l] is region
     [r]'s local id in [st] *)
  let member_bump_region st ~l r d delta =
    let key = (2 * l) + d in
    let old = st.mem.(key) in
    let now = old + delta in
    st.mem.(key) <- now;
    let nss = if d = 0 then nss_h else nss_v in
    if old = 0 && now = 1 then nss.(r) <- nss.(r) +. sdemand.(st.idx)
    else if old = 1 && now = 0 then nss.(r) <- nss.(r) -. sdemand.(st.idx)
  in
  let member_bump st j delta =
    if shielded then begin
      let e = st.edges.(j) in
      member_bump_region st ~l:st.la.(j) geo.ra.(e) geo.dir.(e) delta;
      member_bump_region st ~l:st.lb.(j) geo.rb.(e) geo.dir.(e) delta
    end
  in
  (* Formula (2) over local edge [j]'s two flanking regions, first end
     first *)
  let weight_of st j =
    let e = st.edges.(j) in
    let h = geo.dir.(e) = 0 in
    let inc = if h then inc_h else inc_v in
    let nss = if h then nss_h else nss_v in
    let ra = geo.ra.(e) and rb = geo.rb.(e) in
    let cap_a = geo.cap_a.(e) and cap_b = geo.cap_b.(e) in
    let hu_a = float_of_int (inc.(ra) / 2) +. nss.(ra) in
    let hd = fmax 0.0 (hu_a /. cap_a) in
    let ofr = fmax 0.0 (fmax 0.0 ((hu_a -. cap_a) /. cap_a)) in
    let hu_b = float_of_int (inc.(rb) / 2) +. nss.(rb) in
    let hd = fmax hd (hu_b /. cap_b) in
    let ofr = fmax ofr (fmax 0.0 ((hu_b -. cap_b) /. cap_b)) in
    (weights.alpha *. st.f_wl.(j))
    +. (weights.beta *. hd) +. (weights.gamma *. ofr)
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
              P_state (build_state grid geo net bbox (Rsmt.length pins) edges)
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
            if shielded then
              List.iter
                (fun (reg, d) ->
                  let nss = nss_arr d in
                  nss.(reg) <- nss.(reg) +. sdemand.(net.Net.id))
                (Route.occupied grid r);
            None
        | P_empty -> None
        | P_state st ->
            Array.iteri
              (fun j e ->
                account e 1;
                member_bump st j 1)
              st.edges;
            Some st)
      preps
  in
  (* Seed the heap with every (net, local edge) pair, encoded as one int
     [net * width + local edge], each net's edges in local order. *)
  let width =
    Array.fold_left
      (fun w -> function None -> w | Some st -> max w (Array.length st.edges))
      1 states
  in
  let heap = Heap.create () in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some st ->
          for j = 0 to Array.length st.edges - 1 do
            Heap.push heap (weight_of st j) ((i * width) + j)
          done)
    states;
  let mark = Array.make n_regions 0 in
  let queue = Array.make n_regions 0 in
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
    let w_old = Heap.top_key heap and v = Heap.top heap in
    Heap.pop heap;
    let i = v / width and j = v mod width in
    if jnl then net_pops.(i) <- net_pops.(i) + 1;
    match states.(i) with
    | None -> ()
    | Some st ->
        if Bytes.get st.status j = alive then begin
          let e = st.edges.(j) in
          let w_cur = weight_of st j in
          if w_cur < w_old -. 1e-9 then begin
            Metrics.incr m_reweights;
            if jnl then begin
              net_reweights.(i) <- net_reweights.(i) + 1;
              let rw = if geo.dir.(e) = 0 then region_rw_h else region_rw_v in
              let ra = geo.ra.(e) and rb = geo.rb.(e) in
              rw.(ra) <- rw.(ra) + 1;
              if rb <> ra then rw.(rb) <- rw.(rb) + 1
            end;
            Heap.push heap w_cur v
          end
          else begin
            incr stamp;
            if connected_without st ~mark ~queue ~stamp:!stamp ~skip:j then begin
              Metrics.incr m_deletions;
              if jnl then net_deletions.(i) <- net_deletions.(i) + 1;
              Bytes.set st.status j deleted;
              account e (-1);
              member_bump st j (-1)
            end
            else begin
              Metrics.incr m_essential;
              if jnl then net_essential.(i) <- net_essential.(i) + 1;
              Bytes.set st.status j essential
            end
          end
        end
  done;
  (* post-routing overflow census: regions whose demand (nets + predicted
     shields) exceeds capacity in some direction *)
  List.iter
    (fun dir ->
      let inc = match dir with Dir.H -> inc_h | Dir.V -> inc_v in
      let nss = nss_arr dir in
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
          prune_tree st;
          let live = ref [] in
          Array.iteri
            (fun j e -> if Bytes.get st.status j <> deleted then live := e :: !live)
            st.edges;
          Route.of_edges grid ~net:net.Net.id !live)
    nets
