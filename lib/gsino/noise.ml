module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Instance = Eda_sino.Instance

let sink_lsk ~grid ~gcell_um ~phase2 route ~source ~sink =
  let edges = Route.path_edges grid route ~source ~sink in
  List.fold_left
    (fun acc e ->
      let d = Grid.edge_dir grid e in
      let a, b = Grid.edge_ends grid e in
      let half p =
        let r = Grid.region_id grid p in
        0.5 *. gcell_um *. Phase2.k_of phase2 ~net:(Route.net route) (r, d)
      in
      acc +. half a +. half b)
    0.0 edges

(* ------------------------------ walk plan ------------------------------
   Net [i]'s tree nodes are [node_off.(i) .. node_off.(i+1) - 1], in the
   order [Route.path_edges]' BFS discovers the route's regions from the
   source region (the first node).  A node's arriving edge has two ends,
   at [2v] and [2v+1] in the end arrays, in [Grid.edge_ends] order: the
   panel and slot of the net in that end's (region, edge direction), or
   panel -1 where the net has no K (read as 0, like [Phase2.k_of]). *)

type plan = {
  phase2 : Phase2.t;  (** the store K is read from *)
  netlist : Netlist.t;
  node_off : int array;
  parent : int array;  (** node -> parent node, -1 at a source *)
  end_panel : int array;
  end_slot : int array;
  sink_off : int array;  (** net i's sinks: [sink_off.(i) ..], in [sinks] order *)
  sink_node : int array;  (** sink -> its region's node, -1 if unreached *)
  member_off : int array;  (** panel p's slots: [member_off.(p) + slot] *)
  member_ends : int array;  (** edge ends of the slot's net in the panel *)
}

(* A growable int array: the plan's per-node arrays are filled net by net
   without knowing the total up front. *)
type buf = { mutable a : int array; mutable len : int }

let buf () = { a = Array.make 256 0; len = 0 }

let push b v =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- v;
  b.len <- b.len + 1

let contents b = Array.sub b.a 0 b.len

let plan ~grid ~phase2 ~netlist ~routes =
  let nets = netlist.Netlist.nets in
  let n_panels = Phase2.num_panels phase2 in
  let member_off = Array.make (n_panels + 1) 0 in
  for p = 0 to n_panels - 1 do
    member_off.(p + 1) <-
      member_off.(p) + Instance.size (Phase2.panel_soln phase2 p).Phase2.inst
  done;
  let member_ends = Array.make member_off.(n_panels) 0 in
  (* the (panel, slot) of [net] in [region] along [dir], panel -1 when
     the net has no K there *)
  let locate net region dir =
    match Phase2.panel phase2 (region, dir) with
    | None -> (-1, -1)
    | Some p -> (
        let inst = (Phase2.panel_soln phase2 p).Phase2.inst in
        let rec find i =
          if i >= Instance.size inst then (-1, -1)
          else if Instance.net_id inst i = net then (p, i)
          else find (i + 1)
        in
        find 0)
  in
  let node_off = Array.make (Array.length nets + 1) 0 in
  let sink_off = Array.make (Array.length nets + 1) 0 in
  let parent = buf () and end_panel = buf () and end_slot = buf () in
  let sink_node = buf () in
  let push_end net pt dir =
    let p, slot = locate net (Grid.region_id grid pt) dir in
    push end_panel p;
    push end_slot slot
  in
  Array.iteri
    (fun i (net : Net.t) ->
      let route = routes.(i) in
      let id = Route.net route in
      let edges = Route.edges route in
      (* the route's regions, numbered locally from the source's *)
      let local = Hashtbl.create 32 in
      let intern r =
        match Hashtbl.find_opt local r with
        | Some l -> l
        | None ->
            let l = Hashtbl.length local in
            Hashtbl.add local r l;
            l
      in
      let src = intern (Grid.region_id grid net.Net.source) in
      let ends =
        Array.map
          (fun e ->
            let a, b = Grid.edge_ends grid e in
            (intern (Grid.region_id grid a), intern (Grid.region_id grid b)))
          edges
      in
      (* [Route.path_edges]' adjacency: each region's (neighbour, edge)
         list, prepended to in ascending edge order *)
      let adj = Array.make (Hashtbl.length local) [] in
      Array.iteri
        (fun k e ->
          let la, lb = ends.(k) in
          adj.(la) <- (lb, e) :: adj.(la);
          adj.(lb) <- (la, e) :: adj.(lb))
        edges;
      (* every route edge counts towards the segment lengths, tree edge or
         not, as in [Route.segments] *)
      Array.iter
        (fun e ->
          let a, b = Grid.edge_ends grid e and d = Grid.edge_dir grid e in
          List.iter
            (fun pt ->
              match locate id (Grid.region_id grid pt) d with
              | -1, _ -> ()
              | p, slot ->
                  let m = member_off.(p) + slot in
                  member_ends.(m) <- member_ends.(m) + 1)
            [ a; b ])
        edges;
      (* the BFS of [Route.path_edges], run to the end: the tree path to
         any region is the one it backtracks when that region is the sink *)
      let node = Array.make (Hashtbl.length local) (-1) in
      node.(src) <- parent.len;
      push parent (-1);
      List.iter (fun b -> push b (-1)) [ end_panel; end_panel; end_slot; end_slot ];
      let queue = Array.make (Hashtbl.length local) 0 in
      let head = ref 0 and tail = ref 1 in
      queue.(0) <- src;
      while !head < !tail do
        let l = queue.(!head) in
        incr head;
        List.iter
          (fun (nb, e) ->
            if node.(nb) < 0 then begin
              node.(nb) <- parent.len;
              push parent node.(l);
              let a, b = Grid.edge_ends grid e and d = Grid.edge_dir grid e in
              push_end id a d;
              push_end id b d;
              queue.(!tail) <- nb;
              incr tail
            end)
          adj.(l)
      done;
      node_off.(i + 1) <- parent.len;
      Array.iter
        (fun sink ->
          push sink_node
            (match Hashtbl.find_opt local (Grid.region_id grid sink) with
            | Some l -> node.(l)
            | None -> -1))
        net.Net.sinks;
      sink_off.(i + 1) <- sink_node.len)
    nets;
  {
    phase2;
    netlist;
    node_off;
    parent = contents parent;
    end_panel = contents end_panel;
    end_slot = contents end_slot;
    sink_off;
    sink_node = contents sink_node;
    member_off;
    member_ends;
  }

let segment_um plan ~gcell_um ~panel ~slot =
  float_of_int plan.member_ends.(plan.member_off.(panel) + slot) *. 0.5 *. gcell_um

(* [lsk.(v - node_off.(i))] for every node v of net i: the parent's sum
   plus the two halves of the arriving edge, exactly the operands, in
   exactly the order, of the [sink_lsk] fold along the tree path. *)
let node_lsks plan ~gcell_um i =
  let base = plan.node_off.(i) in
  let lsk = Array.make (plan.node_off.(i + 1) - base) 0.0 in
  let half = 0.5 *. gcell_um in
  let k e =
    let p = plan.end_panel.(e) in
    if p < 0 then 0.0 else (Phase2.panel_soln plan.phase2 p).Phase2.k.(plan.end_slot.(e))
  in
  for v = base + 1 to plan.node_off.(i + 1) - 1 do
    lsk.(v - base) <-
      lsk.(plan.parent.(v) - base) +. (half *. k (2 * v)) +. (half *. k ((2 * v) + 1))
  done;
  lsk

(* sink [s] of net [i]'s node, relative to the net's first *)
let sink_node plan i s =
  let v = plan.sink_node.(plan.sink_off.(i) + s) in
  if v < 0 then invalid_arg "Noise.worst_sink: route does not reach sink";
  v - plan.node_off.(i)

let num_sinks plan i = plan.sink_off.(i + 1) - plan.sink_off.(i)

let sink_lsks plan ~gcell_um i =
  let lsk = node_lsks plan ~gcell_um i in
  Array.init (num_sinks plan i) (fun s -> lsk.(sink_node plan i s))

let worst_sink plan ~gcell_um ~lsk_model i =
  let lsk = node_lsks plan ~gcell_um i in
  let best = ref 0 and best_lsk = ref 0.0 and best_v = ref (-1.0) in
  for s = 0 to num_sinks plan i - 1 do
    let l = lsk.(sink_node plan i s) in
    let v = Eda_lsk.Lsk.noise lsk_model ~lsk:l in
    if v > !best_v then begin
      best := s;
      best_lsk := l;
      best_v := v
    end
  done;
  (!best, !best_lsk, !best_v)

let net_worst plan ~gcell_um ~lsk_model i =
  let _, lsk, v = worst_sink plan ~gcell_um ~lsk_model i in
  (lsk, v)

let path_slots plan i ~sink =
  let base = plan.node_off.(i) in
  let rec up v acc =
    if v = base then acc
    else
      let add acc e =
        let p = plan.end_panel.(e) in
        if p < 0 then acc else (p, plan.end_slot.(e)) :: acc
      in
      up plan.parent.(v) (add (add acc (2 * v)) ((2 * v) + 1))
  in
  List.sort_uniq compare (up (base + sink_node plan i sink) [])

type audit_entry = {
  net : int;
  lsk : float;
  noise_v : float;
  margin_v : float;
  violating : bool;
}

let audit ?pool ?plan:given ~grid ~gcell_um ~phase2 ~lsk_model ~netlist ~routes
    ~bound_v () =
  let plan =
    match given with
    | Some p ->
        if p.phase2 != phase2 || p.netlist != netlist then
          invalid_arg "Noise.audit: the plan was built for another flow";
        p
    | None -> plan ~grid ~phase2 ~netlist ~routes
  in
  let entry i =
    let lsk, v = net_worst plan ~gcell_um ~lsk_model i in
    {
      net = i;
      lsk;
      noise_v = v;
      margin_v = bound_v -. v;
      violating = v > bound_v +. 1e-12;
    }
  in
  (* per-net noise walks are read-only over the plan and phase2 — fan
     out, then rebuild the historical descending-net-id list so the
     stable sort breaks noise ties exactly as the sequential code always
     has *)
  let entries =
    Eda_exec.parallel_map ?pool ~name:"noise.scan"
      (Array.length netlist.Netlist.nets)
      entry
  in
  let out = Array.fold_left (fun acc e -> e :: acc) [] entries in
  List.sort (fun a b -> compare b.noise_v a.noise_v) out

let violations ?pool ?plan ~grid ~gcell_um ~phase2 ~lsk_model ~netlist ~routes
    ~bound_v () =
  audit ?pool ?plan ~grid ~gcell_um ~phase2 ~lsk_model ~netlist ~routes ~bound_v ()
  |> List.filter_map (fun e -> if e.violating then Some (e.net, e.noise_v) else None)
