(* Tests for the core Gsino library: budgeting, the ID router, per-region
   SINO application, noise evaluation, Phase III refinement and the
   end-to-end flows. *)
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage
module Keff = Eda_sino.Keff
module Layout = Eda_sino.Layout
module Instance = Eda_sino.Instance
module Rng = Eda_util.Rng
open Gsino

let p = Point.make
let tech = Tech.default

(* Formula (2)'s constants, as Flow passes them to the ID router *)
let weights =
  {
    Id_router.alpha = tech.Tech.alpha;
    beta = tech.Tech.beta;
    gamma = tech.Tech.gamma;
  }

let lsk_model = lazy (Tech.lsk_model tech)

(* shared tiny benchmark circuit: a scaled ibm01 *)
let tiny =
  lazy
    (let nl = Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7 Generator.ibm01 in
     let grid, base = Flow.prepare tech nl in
     (nl, grid, base))

let sens30 = Sensitivity.make ~seed:11 ~rate:0.30

(* ----------------------------- Budget ------------------------------ *)

let test_budget_two_pin () =
  let nets = [| Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 3 4 |] |] in
  let nl = Netlist.make ~name:"b" ~grid_w:8 ~grid_h:8 ~gcell_um:100.0 nets in
  let m = Lazy.force lsk_model in
  let b = Budget.uniform ~lsk:m ~noise_v:0.15 ~gcell_um:100.0 nl in
  Alcotest.(check (float 1e-9)) "kth = budget / (7 gcells * 100um)"
    (b.Budget.lsk_budget /. 700.0) (Budget.kth b 0)

let test_budget_min_over_sinks () =
  let nets =
    [| Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 1 0; p 5 5 |] |]
  in
  let nl = Netlist.make ~name:"b" ~grid_w:8 ~grid_h:8 ~gcell_um:100.0 nets in
  let m = Lazy.force lsk_model in
  let b = Budget.uniform ~lsk:m ~noise_v:0.15 ~gcell_um:100.0 nl in
  (* farthest sink (distance 10 gcells) governs *)
  Alcotest.(check (float 1e-9)) "min over sinks"
    (b.Budget.lsk_budget /. 1000.0) (Budget.kth b 0)

let test_budget_tighter_for_longer () =
  let nets =
    [|
      Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 2 0 |];
      Net.make ~id:1 ~source:(p 0 0) ~sinks:[| p 7 7 |];
    |]
  in
  let nl = Netlist.make ~name:"b" ~grid_w:8 ~grid_h:8 ~gcell_um:100.0 nets in
  let m = Lazy.force lsk_model in
  let b = Budget.uniform ~lsk:m ~noise_v:0.15 ~gcell_um:100.0 nl in
  Alcotest.(check bool) "longer net gets tighter bound" true
    (Budget.kth b 1 < Budget.kth b 0)

(* -------------------------- shield demand -------------------------- *)

let test_shield_demand () =
  let k = Keff.default in
  let kbar = 0.3 *. Keff.max_feasible_k k in
  Alcotest.(check (float 1e-12)) "loose bound, no demand" 0.0
    (Id_router.shield_demand ~keff:k ~rate:0.3 (kbar *. 1.1));
  let d_tight = Id_router.shield_demand ~keff:k ~rate:0.3 (kbar /. 10.0) in
  let d_mild = Id_router.shield_demand ~keff:k ~rate:0.3 (kbar /. 2.0) in
  Alcotest.(check bool) "tighter bound, more demand" true (d_tight > d_mild);
  Alcotest.(check bool) "demand bounded" true (d_tight <= 6.0);
  Alcotest.check_raises "bad kth"
    (Invalid_argument "Id_router.shield_demand: non-positive kth") (fun () ->
      ignore (Id_router.shield_demand ~keff:k ~rate:0.3 0.0))

(* --------------------------- ID router ----------------------------- *)

let test_steiner_route_connects () =
  let g = Grid.make ~w:8 ~h:8 ~hcap:10 ~vcap:10 in
  let net = Net.make ~id:0 ~source:(p 1 1) ~sinks:[| p 6 2; p 3 6 |] in
  let r = Id_router.steiner_route g net in
  Alcotest.(check bool) "connects all pins" true (Route.connects g r (Net.pins net));
  Alcotest.(check bool) "is a tree" true (Route.is_tree g r)

let test_router_routes_all () =
  let nl, grid, base = Lazy.force tiny in
  Alcotest.(check int) "route per net" (Netlist.num_nets nl) (Array.length base);
  Array.iteri
    (fun i r ->
      let net = nl.Netlist.nets.(i) in
      Alcotest.(check int) "route belongs to its net" i (Route.net r);
      Alcotest.(check bool) (Printf.sprintf "net %d connected" i) true
        (Route.connects grid r (Net.pins net));
      Alcotest.(check bool) (Printf.sprintf "net %d tree" i) true (Route.is_tree grid r))
    base

let test_router_deterministic () =
  let nl, grid, _ = Lazy.force tiny in
  let r1 = Flow.base_routes tech grid nl in
  let r2 = Flow.base_routes tech grid nl in
  Array.iteri
    (fun i r -> Alcotest.(check bool) "same edges" true (Route.edges r = Route.edges r2.(i)))
    r1

let seeded_ibm01 () =
  Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7 Generator.ibm01

(* Run [f] in a metrics registry of its own: its result, the id_router.*
   counters and the minor words it allocated. *)
let counted f =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  let w0 = Gc.minor_words () in
  let result = f () in
  let words = Gc.minor_words () -. w0 in
  let snap = Eda_obs.Metrics.snapshot () in
  let counters =
    List.map
      (fun name -> (name, Eda_obs.Metrics.counter_total snap name))
      [
        "id_router.iterations";
        "id_router.edge_deletions";
        "id_router.essential_edges";
        "id_router.reweights";
        "id_router.direct_nets";
        "id_router.overflowed_regions";
      ]
  in
  (result, counters, words)

(* Route the seeded ibm01 @ 0.02 (seed 7) on its auto grid. *)
let seeded_route shield_model =
  let nl = seeded_ibm01 () in
  let grid = Tech.grid_for tech nl in
  counted (fun () -> Id_router.route ~grid ~netlist:nl ~weights ~shield_model ())

let per_net_model =
  Id_router.Per_net
    {
      keff = tech.Tech.keff;
      rate = 0.3;
      kth = (fun n -> 0.4 +. (0.15 *. float_of_int (n mod 7)));
    }

(* MD5 of the routes' edge lists, one "net:e,e,...," line per net *)
let routes_digest routes =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%d:" (Route.net r));
      Array.iter (fun e -> Buffer.add_string b (Printf.sprintf "%d," e)) (Route.edges r);
      Buffer.add_char b '\n')
    routes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The deletion loop's pop order decides every route: these pin it, with
   the effort counters, under both shield models on the auto grid, and
   through [Flow.prepare], whose second routing runs at the clamped
   capacities every flow routes at, where the overflow term is live (its
   counters sum both of its routings). *)
let test_router_golden () =
  let check what (routes, got, _) ~digest ~counters =
    Alcotest.(check string) (what ^ " routes") digest (routes_digest routes);
    Alcotest.(check (list (pair string int))) (what ^ " counters") counters got
  in
  check "No_shields" (seeded_route Id_router.No_shields)
    ~digest:"a819196c29b6864cdc689ff80fc857ae"
    ~counters:
      [
        ("id_router.iterations", 126769);
        ("id_router.edge_deletions", 4618);
        ("id_router.essential_edges", 842);
        ("id_router.reweights", 121309);
        ("id_router.direct_nets", 0);
        ("id_router.overflowed_regions", 0);
      ];
  check "Per_net" (seeded_route per_net_model)
    ~digest:"ddc66cd395aeaaf36c483638e8fa7819"
    ~counters:
      [
        ("id_router.iterations", 160424);
        ("id_router.edge_deletions", 4645);
        ("id_router.essential_edges", 815);
        ("id_router.reweights", 154964);
        ("id_router.direct_nets", 0);
        ("id_router.overflowed_regions", 46);
      ];
  let (grid, base), counters, words =
    counted (fun () -> Flow.prepare tech (seeded_ibm01 ()))
  in
  Alcotest.(check (pair int int))
    "prepare capacities (h, v)" (17, 15)
    (Grid.cap grid (p 0 0) Dir.H, Grid.cap grid (p 0 0) Dir.V);
  check "prepare" (base, counters, words)
    ~digest:"8b61f352f19739843d174c6a50c57a2b"
    ~counters:
      [
        ("id_router.iterations", 250972);
        ("id_router.edge_deletions", 9255);
        ("id_router.essential_edges", 1665);
        ("id_router.reweights", 240052);
        ("id_router.direct_nets", 0);
        ("id_router.overflowed_regions", 0);
      ]

(* The deletion loop allocates little per pop: minor words of a whole
   route call over its iterations.  The loop's share is the heap key,
   boxed across the module boundary on each pop and re-push; the rest is
   per-net set-up. *)
let test_router_allocation () =
  let _, counters, words = seeded_route Id_router.No_shields in
  let per_iter = words /. float_of_int (List.assoc "id_router.iterations" counters) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per iteration (budget 10)" per_iter)
    true (per_iter <= 10.0)

let test_router_stays_near_bbox () =
  let nl, grid, base = Lazy.force tiny in
  Array.iteri
    (fun i r ->
      let bbox =
        Eda_geom.Rect.clip
          (Eda_geom.Rect.expand (Net.bbox nl.Netlist.nets.(i)) 1)
          ~within:(Eda_geom.Rect.make 0 0 (Grid.width grid - 1) (Grid.height grid - 1))
      in
      Array.iter
        (fun e ->
          let a, b = Grid.edge_ends grid e in
          Alcotest.(check bool) "edge inside expanded bbox" true
            (Eda_geom.Rect.contains bbox a && Eda_geom.Rect.contains bbox b))
        (Route.edges r))
    base

let test_router_big_net_fallback () =
  let g = Grid.make ~w:10 ~h:10 ~hcap:10 ~vcap:10 in
  let nets =
    [| Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 9 9 |] |]
  in
  let nl = Netlist.make ~name:"big" ~grid_w:10 ~grid_h:10 ~gcell_um:50.0 nets in
  (* threshold 4 forces the direct-RSMT path *)
  let routes =
    Id_router.route ~grid:g ~netlist:nl ~weights ~big_net_threshold:4 ()
  in
  Alcotest.(check bool) "fallback still connects" true
    (Route.connects g routes.(0) (Net.pins nets.(0)));
  Alcotest.(check int) "L-route length" 18 (Route.num_edges routes.(0))

let test_router_congestion_balancing () =
  (* many identical nets across a 1-wide channel with two rows available:
     the router must not put every net in the same row *)
  let g = Grid.make ~w:2 ~h:4 ~hcap:3 ~vcap:8 in
  let nets =
    Array.init 8 (fun id -> Net.make ~id ~source:(p 0 1) ~sinks:[| p 1 1 |])
  in
  let nl = Netlist.make ~name:"chan" ~grid_w:2 ~grid_h:4 ~gcell_um:50.0 nets in
  let routes = Id_router.route ~grid:g ~netlist:nl ~weights () in
  let u = Usage.of_routes g ~gcell_um:50.0 (Array.to_list routes) in
  (* all 8 nets cross from column 0 to column 1; capacity per region is 3,
     so at least two rows must be used *)
  let rows_used = ref 0 in
  for y = 0 to 3 do
    if Usage.nns u (Grid.region_id g (p 0 y)) Dir.H > 0 then incr rows_used
  done;
  Alcotest.(check bool) "spread over >= 2 rows" true (!rows_used >= 2)

(* ------------------------------ Phase 2 ---------------------------- *)

let phase2_of ?(mode = Phase2.Min_area) rate =
  let nl, grid, base = Lazy.force tiny in
  let m = Lazy.force lsk_model in
  let b = Budget.uniform ~lsk:m ~noise_v:0.15 ~gcell_um:nl.Netlist.gcell_um nl in
  let sens = Sensitivity.make ~seed:11 ~rate in
  ( nl,
    grid,
    base,
    b,
    Phase2.solve ~grid ~routes:base ~kth:(Budget.kth b)
      ~sensitivity:sens ~keff:tech.Tech.keff ~mode ~seed:3 () )

let test_phase2_covers_occupied () =
  let _, grid, base, _, p2 = phase2_of 0.30 in
  Array.iter
    (fun r ->
      List.iter
        (fun key ->
          match Phase2.find p2 key with
          | None -> Alcotest.fail "occupied region without solution"
          | Some s ->
              Alcotest.(check bool) "net in instance" true
                (List.mem (Route.net r) (List.init (Instance.size s.Phase2.inst) (Instance.net_id s.Phase2.inst))))
        (Route.occupied grid r))
    base

let test_phase2_layouts_feasible () =
  let _, _, _, _, p2 = phase2_of 0.30 in
  let infeasible = ref 0 and total = ref 0 in
  Phase2.iter p2 (fun _ s ->
      incr total;
      if not (Layout.feasible s.Phase2.layout tech.Tech.keff) then incr infeasible);
  Alcotest.(check bool) "instances exist" true (!total > 0);
  Alcotest.(check int) "all min-area layouts feasible" 0 !infeasible

let test_phase2_order_only_no_shields () =
  let _, _, _, _, p2 = phase2_of ~mode:Phase2.Order_only 0.30 in
  Alcotest.(check int) "NO adds no shields" 0 (Phase2.total_shields p2)

let test_phase2_k_matches_layout () =
  let _, _, _, _, p2 = phase2_of 0.30 in
  Phase2.iter p2 (fun key s ->
      Array.iteri
        (fun li ki ->
          let gid = Instance.net_id s.Phase2.inst li in
          Alcotest.(check (float 1e-9)) "stored K matches layout" ki
            (Phase2.k_of p2 ~net:gid key))
        (Layout.k_all s.Phase2.layout tech.Tech.keff))

let test_phase2_regions_of_net () =
  let _, grid, base, _, p2 = phase2_of 0.30 in
  Array.iter
    (fun r ->
      let keys = Phase2.regions_of_net p2 (Route.net r) in
      List.iter
        (fun key ->
          Alcotest.(check bool) "membership consistent" true (List.mem key keys))
        (Route.occupied grid r))
    base

(* ------------------------------ Noise ------------------------------ *)

let test_noise_hand_computed () =
  (* single net, straight 2-edge horizontal route; uniform K from a
     one-net instance is 0 (no aggressors), so LSK = 0 *)
  let g = Grid.make ~w:4 ~h:1 ~hcap:4 ~vcap:4 in
  let nets = [| Net.make ~id:0 ~source:(p 0 0) ~sinks:[| p 2 0 |] |] in
  let nl = Netlist.make ~name:"n" ~grid_w:4 ~grid_h:1 ~gcell_um:100.0 nets in
  let routes =
    [| Route.of_edges g ~net:0 [ Grid.edge_id g (p 0 0) Dir.H; Grid.edge_id g (p 1 0) Dir.H ] |]
  in
  let m = Lazy.force lsk_model in
  let b = Budget.uniform ~lsk:m ~noise_v:0.15 ~gcell_um:100.0 nl in
  let p2 =
    Phase2.solve ~grid:g ~routes ~kth:(Budget.kth b)
      ~sensitivity:(Sensitivity.make ~seed:1 ~rate:1.0) ~keff:tech.Tech.keff
      ~mode:Phase2.Min_area ~seed:1 ()
  in
  let lsk =
    Noise.sink_lsk ~grid:g ~gcell_um:100.0 ~phase2:p2 routes.(0)
      ~source:(p 0 0) ~sink:(p 2 0)
  in
  Alcotest.(check (float 1e-9)) "lone net has zero LSK" 0.0 lsk;
  let violations =
    Noise.violations ~grid:g ~gcell_um:100.0 ~phase2:p2 ~lsk_model:m ~netlist:nl
      ~routes ~bound_v:0.15 ()
  in
  Alcotest.(check int) "no violations" 0 (List.length violations)

let test_noise_violations_sorted () =
  let nl, grid, base, _, p2 = phase2_of ~mode:Phase2.Order_only 0.50 in
  let m = Lazy.force lsk_model in
  let v =
    Noise.violations ~grid ~gcell_um:nl.Netlist.gcell_um ~phase2:p2 ~lsk_model:m
      ~netlist:nl ~routes:base ~bound_v:0.15 ()
  in
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "worst first" true (sorted v);
  List.iter
    (fun (_, noise) ->
      Alcotest.(check bool) "all above bound" true (noise > 0.15))
    v

(* Net [i] of a random routed netlist on a small grid.  Each route is a
   tree grown by L-shaped walks to each sink from a random region already
   on it, so sinks share trunks; a walk may cross the tree and close a
   cycle, and a third of the routes gain one more edge between two
   adjacent regions on it.  A fifth of the sinks sit in the source
   region.  With [unreached], net 0 gets one more sink off its route. *)
let random_routed rng ~unreached =
  let w = Rng.int_in rng 3 7 and h = Rng.int_in rng 3 7 in
  let grid = Grid.make ~w ~h ~hcap:40 ~vcap:40 in
  let pt () = p (Rng.int rng w) (Rng.int rng h) in
  let step (a : Point.t) (b : Point.t) =
    (* one edge from a towards b along x if [horizontal], else along y *)
    fun horizontal ->
      if horizontal then
        if b.Point.x > a.Point.x then
          (Grid.edge_id grid a Dir.H, p (a.Point.x + 1) a.Point.y)
        else
          let q = p (a.Point.x - 1) a.Point.y in
          (Grid.edge_id grid q Dir.H, q)
      else if b.Point.y > a.Point.y then
        (Grid.edge_id grid a Dir.V, p a.Point.x (a.Point.y + 1))
      else
        let q = p a.Point.x (a.Point.y - 1) in
        (Grid.edge_id grid q Dir.V, q)
  in
  let walk a b =
    let h_first = Rng.bool rng 0.5 in
    let rec go (a : Point.t) acc =
      if Point.equal a b then acc
      else
        let horizontal =
          if a.Point.x = b.Point.x then false
          else if a.Point.y = b.Point.y then true
          else h_first
        in
        let e, a' = step a b horizontal in
        go a' ((e, a') :: acc)
    in
    go a []
  in
  let n = Rng.int_in rng 1 10 in
  let nets =
    Array.init n (fun id ->
        let source = pt () in
        let sinks =
          Array.init (Rng.int_in rng 1 4) (fun _ ->
              if Rng.bool rng 0.2 then source else pt ())
        in
        Net.make ~id ~source ~sinks)
  in
  let routes =
    Array.map
      (fun (net : Net.t) ->
        let on = ref [ net.Net.source ] and edges = ref [] in
        Array.iter
          (fun sink ->
            let from = List.nth !on (Rng.int rng (List.length !on)) in
            List.iter
              (fun (e, q) ->
                edges := e :: !edges;
                on := q :: !on)
              (walk from sink))
          net.Net.sinks;
        (if Rng.bool rng 0.33 then
           let a = List.nth !on (Rng.int rng (List.length !on)) in
           match
             List.filter
               (fun (q : Point.t) -> q.Point.x = a.Point.x + 1 && q.Point.y = a.Point.y)
               !on
           with
           | _ :: _ -> edges := Grid.edge_id grid a Dir.H :: !edges
           | [] -> ());
        Route.of_edges grid ~net:net.Net.id !edges)
      nets
  in
  let nets =
    if not unreached then nets
    else
      let net = nets.(0) in
      let off =
        List.filter
          (fun q -> not (Route.connects grid routes.(0) [ net.Net.source; q ]))
          (List.init (w * h) (fun r -> p (r mod w) (r / w)))
      in
      match off with
      | [] -> nets
      | _ ->
          let q = List.nth off (Rng.int rng (List.length off)) in
          nets.(0) <-
            Net.make ~id:0 ~source:net.Net.source
              ~sinks:(Array.append net.Net.sinks [| q |]);
          nets
  in
  let nl = Netlist.make ~name:"random" ~grid_w:w ~grid_h:h ~gcell_um:100.0 nets in
  let kth = Array.init n (fun _ -> 0.1 +. Rng.float rng 1.2) in
  let phase2 =
    Phase2.solve ~grid ~routes ~kth:(fun i -> kth.(i))
      ~sensitivity:(Sensitivity.make ~seed:(Rng.int rng 1000) ~rate:0.6)
      ~keff:tech.Tech.keff ~mode:Phase2.Min_area ~seed:1 ()
  in
  (nl, grid, routes, phase2)

let bits = Int64.bits_of_float

(* The plan against the [Route.path_edges] fold, sink by sink and bit by
   bit, before and after a panel's solution is swapped in place; and the
   worst sink against a scan of the fold in sink order. *)
let plan_matches_fold (nl, grid, routes, phase2) =
  let m = Lazy.force lsk_model and gcell_um = 100.0 in
  let plan = Noise.plan ~grid ~phase2 ~netlist:nl ~routes in
  let reference i =
    let net = nl.Netlist.nets.(i) in
    Array.map
      (fun sink ->
        match
          Noise.sink_lsk ~grid ~gcell_um ~phase2 routes.(i) ~source:net.Net.source
            ~sink
        with
        | l -> Some l
        | exception Not_found -> None)
      net.Net.sinks
  in
  let agree () =
    List.for_all
      (fun i ->
        let expect = reference i in
        if Array.exists Option.is_none expect then
          (match Noise.worst_sink plan ~gcell_um ~lsk_model:m i with
           | _ -> false
           | exception Invalid_argument msg ->
               msg = "Noise.worst_sink: route does not reach sink")
        else
          let lsks = Array.map Option.get expect in
          let got = Noise.sink_lsks plan ~gcell_um i in
          let worst = ref (0, 0.0, -1.0) in
          Array.iteri
            (fun s l ->
              let v = Eda_lsk.Lsk.noise m ~lsk:l in
              let _, _, wv = !worst in
              if v > wv then worst := (s, l, v))
            lsks;
          let ws, wl, wv = !worst and gs, gl, gv = Noise.worst_sink plan ~gcell_um ~lsk_model:m i in
          Array.for_all2 (fun a b -> bits a = bits b) lsks got
          && ws = gs && bits wl = bits gl && bits wv = bits gv)
      (List.init (Netlist.num_nets nl) Fun.id)
  in
  agree ()
  && (Phase2.num_panels phase2 = 0
     ||
     let key = Phase2.panel_key phase2 0 in
     let s = Phase2.panel_soln phase2 0 in
     let inst = Instance.with_kth s.Phase2.inst 0 0.02 in
     Phase2.replace phase2 key (Phase2.resolve phase2 key inst);
     agree ())

let noise_properties =
  let open QCheck in
  [
    Test.make ~name:"plan sink LSKs equal the path_edges fold" ~count:150
      (int_range 0 100_000)
      (fun seed -> plan_matches_fold (random_routed (Rng.create seed) ~unreached:false));
    Test.make ~name:"plan raises on an unreached sink like the fold" ~count:60
      (int_range 0 100_000)
      (fun seed -> plan_matches_fold (random_routed (Rng.create seed) ~unreached:true));
  ]

(* Evaluating every net of a built plan allocates only each net's node
   sums and its result: minor words per net on the seeded ibm01 @ 0.02
   at rate 0.30 (39 here; a hash-table BFS per sink took 587). *)
let test_plan_allocation () =
  let nl, grid, base, _, p2 = phase2_of 0.30 in
  let m = Lazy.force lsk_model and gcell_um = nl.Netlist.gcell_um in
  let plan = Noise.plan ~grid ~phase2:p2 ~netlist:nl ~routes:base in
  let n = Netlist.num_nets nl in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Noise.net_worst plan ~gcell_um ~lsk_model:m i)
  done;
  let per_net = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per net (budget 50)" per_net)
    true (per_net <= 50.0)

(* ------------------------------ Flows ------------------------------ *)

let flows =
  lazy
    (let nl, grid, base = Lazy.force tiny in
     let config kind = { Flow.Config.default with Flow.Config.kind; seed = 3 } in
     let idno = Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity:sens30 nl in
     let isino = Flow.run ~grid ~base (config Flow.Isino) tech ~sensitivity:sens30 nl in
     let gsino = Flow.run ~grid (config Flow.Gsino) tech ~sensitivity:sens30 nl in
     (nl, idno, isino, gsino))

(* the shared request path (the batch commands' and the daemon's) is
   exactly prepare, the seed lxor 0xbeef draw and one run per kind *)
let test_flow_run_kinds_matches_explicit () =
  let nl, grid, base = Lazy.force tiny in
  let config = Flow.Config.default in
  let sensitivity =
    Sensitivity.make ~seed:(config.Flow.Config.seed lxor 0xbeef) ~rate:0.30
  in
  let kinds = [ Flow.Id_no; Flow.Isino; Flow.Gsino ] in
  let explicit =
    List.map
      (fun kind ->
        Flow.run ~grid ~base { config with Flow.Config.kind } tech ~sensitivity
          nl)
      kinds
  in
  let shared = Flow.run_kinds config tech ~rate:0.30 kinds nl ~f:Fun.id in
  (* the summary line without its wall-clock phase timings *)
  let summary r =
    Format.asprintf "%a" Flow.pp_summary
      { r with Flow.route_s = 0.0; sino_s = 0.0; refine_s = 0.0 }
  in
  Alcotest.(check (list string)) "kinds in request order"
    (List.map Flow.kind_name kinds)
    (List.map (fun r -> Flow.kind_name r.Flow.kind) shared);
  List.iter2
    (fun e s ->
      let name = Flow.kind_name e.Flow.kind in
      Alcotest.(check int) (name ^ " shields") e.Flow.shields s.Flow.shields;
      Alcotest.(check (float 0.0)) (name ^ " wire length") e.Flow.total_wl_um
        s.Flow.total_wl_um;
      Alcotest.(check bool) (name ^ " violations") true
        (e.Flow.violations = s.Flow.violations);
      Alcotest.(check string) (name ^ " summary") (summary e) (summary s))
    explicit shared

(* A prepared value's grid capacities and base routes, as one digest *)
let setup_digest (grid, base) =
  let b = Buffer.create 4096 in
  for r = 0 to Grid.num_regions grid - 1 do
    let pt = Grid.region_pt grid r in
    Printf.bprintf b "%d %d;" (Grid.cap grid pt Dir.H) (Grid.cap grid pt Dir.V)
  done;
  Array.iter
    (fun route ->
      Printf.bprintf b "|%d:" (Route.net route);
      Array.iter (Printf.bprintf b "%d,") (Route.edges route))
    base;
  Digest.to_hex (Digest.string (Buffer.contents b))

let in_fresh_registry f =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  f ();
  Eda_obs.Metrics.(entries (snapshot ()))

(* Domains share a prepared value read-only: the flows that read it
   leave its grid and base routes as preparing made them, for either
   router.  An ID+NO or iSINO result carries the prepared grid and base
   routes themselves; each is digested as its flow ends, the last after
   GSINO has run on the same grid. *)
let test_prepared_unchanged_by_flows () =
  let nl, _, _ = Lazy.force tiny in
  List.iter
    (fun (name, router) ->
      let config = { Flow.Config.default with Flow.Config.router } in
      ignore @@ in_fresh_registry @@ fun () ->
      let fresh = setup_digest (Flow.prepare ~config tech nl) in
      let p = Flow.record_prepare ~config tech nl in
      let digests =
        Flow.run_kinds ~prepared:p config tech ~rate:0.30
          [ Flow.Id_no; Flow.Isino; Flow.Gsino; Flow.Id_no ]
          nl
          ~f:(fun (r : Flow.result) ->
            match r.Flow.kind with
            | Flow.Gsino -> None
            | Flow.Id_no | Flow.Isino -> Some (setup_digest (r.Flow.grid, r.Flow.routes)))
      in
      List.iteri
        (fun i d ->
          Option.iter
            (Alcotest.(check string) (Printf.sprintf "%s: flow %d leaves prepare's setup" name i)
               fresh)
            d)
        digests)
    [ ("ID", Flow.Iterative_deletion); ("NC", Flow.Negotiated) ]

(* The NC router sets its gauges, so a replay sets them too: replaying
   one preparation twice in a registry leaves what two preparations
   there leave, where adding the gauges would double them. *)
let test_prepared_replay_twice () =
  let nl, _, _ = Lazy.force tiny in
  let config = { Flow.Config.default with Flow.Config.router = Flow.Negotiated } in
  let direct =
    in_fresh_registry (fun () ->
        for _ = 1 to 2 do
          ignore (Flow.prepare ~config tech nl)
        done)
  in
  let p = Flow.record_prepare ~config tech nl in
  let replayed =
    in_fresh_registry (fun () ->
        for _ = 1 to 2 do
          ignore (Flow.run_kinds ~prepared:p config tech ~rate:0.30 [] nl ~f:ignore)
        done)
  in
  Alcotest.(check bool) "the gauge is recorded" true
    (List.exists (fun (name, _, _) -> name = "nc_router.pres_fac") direct);
  Alcotest.(check bool) "two replays equal two preparations" true (direct = replayed);
  Alcotest.check_raises "a value prepared with another router"
    (Invalid_argument "Flow.run_kinds: prepared with another router") (fun () ->
      ignore (Flow.run_kinds ~prepared:p Flow.Config.default tech ~rate:0.30 [] nl ~f:ignore))

let test_flow_idno_shape () =
  let _, idno, _, _ = Lazy.force flows in
  Alcotest.(check bool) "no refinement" true (idno.Flow.refine_stats = None);
  Alcotest.(check int) "no shields" 0 idno.Flow.shields;
  Alcotest.(check bool) "positive wire length" true (idno.Flow.avg_wl_um > 0.0)

let test_flow_sino_eliminates_violations () =
  let _, _, isino, gsino = Lazy.force flows in
  Alcotest.(check int) "iSINO violation-free" 0 (Flow.violation_count isino);
  Alcotest.(check int) "GSINO violation-free" 0 (Flow.violation_count gsino)

let test_flow_baselines_share_routes () =
  let _, idno, isino, _ = Lazy.force flows in
  Alcotest.(check (float 1e-9)) "identical wire length" idno.Flow.avg_wl_um
    isino.Flow.avg_wl_um

let test_flow_area_ordering () =
  let _, idno, isino, gsino = Lazy.force flows in
  let area r = match r.Flow.area with _, _, a -> a in
  Alcotest.(check bool) "iSINO area >= ID+NO (shields only add)" true
    (area isino >= area idno -. 1e-6);
  Alcotest.(check bool) "GSINO area >= ID+NO" true (area gsino >= area idno -. 1e-6)

let test_flow_violation_pct () =
  let _, idno, _, _ = Lazy.force flows in
  let pct = Flow.violation_pct idno in
  Alcotest.(check bool) "pct consistent with count" true
    (Float.abs
       (pct
       -. 100.0
          *. float_of_int (Flow.violation_count idno)
          /. float_of_int (Netlist.num_nets idno.Flow.netlist))
    < 1e-9)

let test_flow_refine_stats () =
  let _, _, isino, gsino = Lazy.force flows in
  List.iter
    (fun r ->
      match r.Flow.refine_stats with
      | None -> Alcotest.fail "refined flow must report stats"
      | Some s ->
          Alcotest.(check int) "no residual violations" 0 s.Refine.residual_violations)
    [ isino; gsino ]

let test_flow_kind_names () =
  Alcotest.(check string) "ID+NO" "ID+NO" (Flow.kind_name Flow.Id_no);
  Alcotest.(check string) "iSINO" "iSINO" (Flow.kind_name Flow.Isino);
  Alcotest.(check string) "GSINO" "GSINO" (Flow.kind_name Flow.Gsino)

let test_prepare_no_overflow_for_base () =
  let nl, grid, base = Lazy.force tiny in
  let u = Usage.of_routes grid ~gcell_um:nl.Netlist.gcell_um (Array.to_list base) in
  (* capacities were clamped at the q=0.90 regional demand: only the top
     decile of regions may overflow, and only mildly *)
  let over = ref 0 and regions = Grid.num_regions grid in
  for r = 0 to regions - 1 do
    List.iter (fun d -> if Usage.overflow u r d > 0 then incr over) Dir.all
  done;
  Alcotest.(check bool)
    (Printf.sprintf "overflowing region-dirs %d <= 20%%" !over)
    true
    (float_of_int !over <= 0.2 *. float_of_int (2 * regions))

(* ------------------------------ Report ----------------------------- *)

let test_paper_reference_values () =
  Alcotest.(check (option (float 1e-9))) "ibm01@30" (Some 14.60)
    (Report.Paper.violations "ibm01" 0.30);
  Alcotest.(check (option (float 1e-9))) "ibm05@50" (Some 24.07)
    (Report.Paper.violations "ibm05" 0.50);
  Alcotest.(check (option (float 1e-9))) "ibm02 wl" (Some 724.)
    (Report.Paper.avg_wl "ibm02");
  Alcotest.(check (option (float 1e-9))) "ibm03 wl overhead @50" (Some 16.38)
    (Report.Paper.wl_overhead "ibm03" 0.50);
  Alcotest.(check (option (float 1e-9))) "ibm04 isino area @30" (Some 16.78)
    (Report.Paper.area_overhead "ibm04" 0.30 `Isino);
  Alcotest.(check (option (float 1e-9))) "ibm06 gsino area @50" (Some 11.00)
    (Report.Paper.area_overhead "ibm06" 0.50 `Gsino);
  Alcotest.(check (option (float 1e-9))) "unknown circuit" None
    (Report.Paper.violations "ibm42" 0.30);
  Alcotest.(check (option (float 1e-9))) "unknown rate" None
    (Report.Paper.violations "ibm01" 0.42)

let test_report_runs_and_prints () =
  let suite =
    Report.run_suite ~profiles:[ Generator.ibm01 ] ~rates:[ 0.30 ] ~scale:0.02
      ~seed:7 ()
  in
  Alcotest.(check int) "one run" 1 (List.length suite.Report.runs);
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.table1 fmt suite;
  Report.table2 fmt suite;
  Report.table3 fmt suite;
  Report.violations_summary fmt suite;
  Report.timing_summary fmt suite;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions circuit" true
    (String.length out > 0 && contains "ibm01" out && contains "GSINO" out)

(* --------------------------- extra coverage ------------------------ *)

let test_weights_gamma_matters () =
  (* with the overflow term disabled, the router packs the shortest rows
     and overflows; with gamma = 50 it balances *)
  let g = Grid.make ~w:2 ~h:4 ~hcap:3 ~vcap:8 in
  let nets =
    Array.init 9 (fun id -> Net.make ~id ~source:(p 0 1) ~sinks:[| p 1 1 |])
  in
  let nl = Netlist.make ~name:"gam" ~grid_w:2 ~grid_h:4 ~gcell_um:50.0 nets in
  let overflow weights =
    let routes = Id_router.route ~grid:g ~netlist:nl ~weights () in
    Usage.total_overflow
      (Usage.of_routes g ~gcell_um:50.0 (Array.to_list routes))
  in
  let balanced = overflow { Id_router.alpha = 2.; beta = 1.; gamma = 50. } in
  let greedy_wl = overflow { Id_router.alpha = 2.; beta = 0.; gamma = 0. } in
  Alcotest.(check bool)
    (Printf.sprintf "gamma reduces overflow (%d <= %d)" balanced greedy_wl)
    true
    (balanced <= greedy_wl)

let test_demand_quantile () =
  let grid = Grid.make ~w:2 ~h:1 ~hcap:8 ~vcap:8 in
  let route = Route.of_edges grid ~net:0 [ Grid.edge_id grid (p 0 0) Dir.H ] in
  let usage = Usage.of_routes grid ~gcell_um:100.0 [ route ] in
  (* both regions hold one H track, no V tracks *)
  Alcotest.(check int) "H demand" 1 (Flow.demand_quantile usage grid 0.9 Dir.H);
  Alcotest.(check int) "V demand" 0 (Flow.demand_quantile usage grid 0.9 Dir.V)

let test_lsk_model_cached () =
  let m1 = Tech.lsk_model Tech.default in
  let m2 = Tech.lsk_model Tech.default in
  Alcotest.(check bool) "same table object" true (m1 == m2)

(* The models are constants: two domains read the very same values,
   the ones this domain reads. *)
let test_models_concurrent_domains () =
  let request () = (Tech.lsk_model Tech.default, Tech.estimate_coeffs ()) in
  let a = Domain.spawn request and b = Domain.spawn request in
  let ma, ca = Domain.join a and mb, cb = Domain.join b in
  let m, c = request () in
  Alcotest.(check bool) "same table" true (ma == m && mb == m);
  Alcotest.(check bool) "same Formula-3 fit" true (ca == c && cb == c)

let test_report_run_circuit_shares_setup () =
  let runs =
    Report.run_circuit ~scale:0.02 ~seed:7 Generator.ibm01 [ 0.30; 0.50 ]
  in
  Alcotest.(check int) "two runs" 2 (List.length runs);
  match runs with
  | [ a; b ] ->
      (* both rates share the identical base routing *)
      Alcotest.(check (float 1e-9)) "same base WL" a.Report.idno.Flow.avg_wl_um
        b.Report.idno.Flow.avg_wl_um;
      Alcotest.(check bool) "violations grow with rate" true
        (Flow.violation_count b.Report.idno >= Flow.violation_count a.Report.idno)
  | _ -> Alcotest.fail "expected two runs"

let suites =
  [
    ( "gsino.budget",
      [
        Alcotest.test_case "two-pin kth" `Quick test_budget_two_pin;
        Alcotest.test_case "min over sinks" `Quick test_budget_min_over_sinks;
        Alcotest.test_case "tighter for longer" `Quick test_budget_tighter_for_longer;
      ] );
    ( "gsino.shield_demand",
      [ Alcotest.test_case "monotone and bounded" `Quick test_shield_demand ] );
    ( "gsino.id_router",
      [
        Alcotest.test_case "steiner route connects" `Quick test_steiner_route_connects;
        Alcotest.test_case "routes all nets" `Slow test_router_routes_all;
        Alcotest.test_case "deterministic" `Slow test_router_deterministic;
        Alcotest.test_case "stays near bbox" `Slow test_router_stays_near_bbox;
        Alcotest.test_case "golden routes and counters" `Slow test_router_golden;
        Alcotest.test_case "allocation per iteration" `Slow test_router_allocation;
        Alcotest.test_case "big-net fallback" `Quick test_router_big_net_fallback;
        Alcotest.test_case "congestion balancing" `Quick test_router_congestion_balancing;
      ] );
    ( "gsino.phase2",
      [
        Alcotest.test_case "covers occupied regions" `Slow test_phase2_covers_occupied;
        Alcotest.test_case "layouts feasible" `Slow test_phase2_layouts_feasible;
        Alcotest.test_case "order-only adds no shields" `Slow test_phase2_order_only_no_shields;
        Alcotest.test_case "k matches layout" `Slow test_phase2_k_matches_layout;
        Alcotest.test_case "regions_of_net" `Slow test_phase2_regions_of_net;
      ] );
    ( "gsino.noise",
      [
        Alcotest.test_case "hand computed" `Slow test_noise_hand_computed;
        Alcotest.test_case "violations sorted" `Slow test_noise_violations_sorted;
        Alcotest.test_case "plan evaluation allocation" `Slow test_plan_allocation;
      ] );
    ("noise.properties", List.map QCheck_alcotest.to_alcotest noise_properties);
    ( "gsino.flow",
      [
        Alcotest.test_case "ID+NO shape" `Slow test_flow_idno_shape;
        Alcotest.test_case "SINO flows eliminate violations" `Slow
          test_flow_sino_eliminates_violations;
        Alcotest.test_case "baselines share routes" `Slow test_flow_baselines_share_routes;
        Alcotest.test_case "area ordering" `Slow test_flow_area_ordering;
        Alcotest.test_case "violation pct" `Slow test_flow_violation_pct;
        Alcotest.test_case "refine stats" `Slow test_flow_refine_stats;
        Alcotest.test_case "kind names" `Quick test_flow_kind_names;
        Alcotest.test_case "run_kinds matches explicit runs" `Slow
          test_flow_run_kinds_matches_explicit;
        Alcotest.test_case "prepared value unchanged by the flows" `Slow
          test_prepared_unchanged_by_flows;
        Alcotest.test_case "NC replay twice equals two preparations" `Slow
          test_prepared_replay_twice;
        Alcotest.test_case "prepare keeps base overflow low" `Slow
          test_prepare_no_overflow_for_base;
      ] );
    ( "gsino.coverage",
      [
        Alcotest.test_case "gamma matters" `Quick test_weights_gamma_matters;
        Alcotest.test_case "demand quantile" `Quick test_demand_quantile;
        Alcotest.test_case "lsk model cached" `Slow test_lsk_model_cached;
        Alcotest.test_case "models shared across domains" `Slow
          test_models_concurrent_domains;
        Alcotest.test_case "run_circuit shares setup" `Slow
          test_report_run_circuit_shares_setup;
      ] );
    ( "gsino.report",
      [
        Alcotest.test_case "paper reference values" `Quick test_paper_reference_values;
        Alcotest.test_case "suite runs and prints" `Slow test_report_runs_and_prints;
      ] );
  ]
