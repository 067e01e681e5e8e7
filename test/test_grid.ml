(* Tests for Eda_grid: grid indexing, routes, usage accounting and the
   paper's area metric. *)
module Point = Eda_geom.Point
module Rect = Eda_geom.Rect
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Usage = Eda_grid.Usage

let p = Point.make
let g44 () = Grid.make ~w:4 ~h:4 ~hcap:10 ~vcap:10

let test_dir () =
  Alcotest.(check bool) "H is not V" false (Dir.equal Dir.H Dir.V);
  Alcotest.(check string) "names" "H" (Dir.to_string Dir.H)

let test_grid_region_roundtrip () =
  let g = g44 () in
  for r = 0 to Grid.num_regions g - 1 do
    Alcotest.(check int) "roundtrip" r (Grid.region_id g (Grid.region_pt g r))
  done;
  Alcotest.check_raises "oob" (Invalid_argument "Grid.region_id: out of bounds")
    (fun () -> ignore (Grid.region_id g (p 4 0)))

let test_grid_edge_roundtrip () =
  let g = g44 () in
  Alcotest.(check int) "edge count" (12 + 12) (Grid.num_edges g);
  for e = 0 to Grid.num_edges g - 1 do
    let a, b = Grid.edge_ends g e in
    let d = Grid.edge_dir g e in
    Alcotest.(check int) "roundtrip" e (Grid.edge_id g a d);
    (match d with
    | Dir.H -> Alcotest.(check bool) "H adjacency" true (b.Point.x = a.Point.x + 1 && b.Point.y = a.Point.y)
    | Dir.V -> Alcotest.(check bool) "V adjacency" true (b.Point.y = a.Point.y + 1 && b.Point.x = a.Point.x))
  done

let test_grid_edge_bounds () =
  let g = g44 () in
  Alcotest.check_raises "H off east edge"
    (Invalid_argument "Grid.edge_id: H edge out of bounds") (fun () ->
      ignore (Grid.edge_id g (p 3 0) Dir.H));
  Alcotest.check_raises "V off north edge"
    (Invalid_argument "Grid.edge_id: V edge out of bounds") (fun () ->
      ignore (Grid.edge_id g (p 0 3) Dir.V))

let test_grid_edges_within () =
  let g = g44 () in
  (* 2x2 block: 2 H edges + 2 V edges *)
  let es = Grid.edges_within g (Rect.make 0 0 1 1) in
  Alcotest.(check int) "2x2 block" 4 (List.length es);
  (* full grid *)
  Alcotest.(check int) "full grid" (Grid.num_edges g)
    (List.length (Grid.edges_within g (Rect.make 0 0 3 3)));
  (* single region has no internal edges *)
  Alcotest.(check int) "single region" 0
    (List.length (Grid.edges_within g (Rect.make 2 2 2 2)));
  (* out-of-grid rect clipped *)
  Alcotest.(check int) "clipped" 4
    (List.length (Grid.edges_within g (Rect.make (-5) (-5) 1 1)))

let test_grid_incident () =
  let g = g44 () in
  Alcotest.(check int) "corner" 2 (List.length (Grid.incident_edges g (p 0 0)));
  Alcotest.(check int) "edge" 3 (List.length (Grid.incident_edges g (p 1 0)));
  Alcotest.(check int) "center" 4 (List.length (Grid.incident_edges g (p 1 1)))

let test_grid_auto () =
  let nl =
    Eda_netlist.Generator.uniform ~name:"u" ~grid_w:8 ~grid_h:8 ~n_nets:200
      ~mean_span:3.0 ~seed:9
  in
  let g = Grid.auto ~util_target:0.6 nl in
  Alcotest.(check int) "width" 8 (Grid.width g);
  Alcotest.(check bool) "caps at least the floor" true (Grid.cap g (p 0 0) Dir.H >= 12)

(* a 2-hop L route on the 4x4 grid: (0,0)-(1,0)-(1,1) *)
let l_route g =
  Route.of_edges g ~net:7
    [ Grid.edge_id g (p 0 0) Dir.H; Grid.edge_id g (p 1 0) Dir.V ]

let test_route_basics () =
  let g = g44 () in
  let r = l_route g in
  Alcotest.(check int) "net id" 7 (Route.net r);
  Alcotest.(check int) "edges" 2 (Route.num_edges r);
  Alcotest.(check (float 1e-9)) "length gcells" 2.0 (Route.length_gcells r);
  Alcotest.(check (float 1e-9)) "length um" 120.0 (Route.length_um r ~gcell_um:60.0)

let test_route_dedup () =
  let g = g44 () in
  let e = Grid.edge_id g (p 0 0) Dir.H in
  let r = Route.of_edges g ~net:0 [ e; e; e ] in
  Alcotest.(check int) "dedup" 1 (Route.num_edges r)

let test_route_segments () =
  let g = g44 () in
  let r = l_route g in
  (* H edge (0,0)-(1,0): half gcell of H in regions 0 and 1 *)
  let segs_h = Route.segments g r Dir.H in
  Alcotest.(check int) "two H regions" 2 (List.length segs_h);
  List.iter (fun (_, l) -> Alcotest.(check (float 1e-9)) "half gcell" 0.5 l) segs_h;
  let segs_v = Route.segments g r Dir.V in
  Alcotest.(check int) "two V regions" 2 (List.length segs_v)

let test_route_segments_through () =
  let g = g44 () in
  (* straight 2-edge H route through region (1,0): full gcell there *)
  let r =
    Route.of_edges g ~net:0
      [ Grid.edge_id g (p 0 0) Dir.H; Grid.edge_id g (p 1 0) Dir.H ]
  in
  let mid = Grid.region_id g (p 1 0) in
  let l = List.assoc mid (Route.segments g r Dir.H) in
  Alcotest.(check (float 1e-9)) "through length 1 gcell" 1.0 l

let test_route_occupied () =
  let g = g44 () in
  let r = l_route g in
  Alcotest.(check int) "4 track uses" 4 (List.length (Route.occupied g r))

let test_route_connects () =
  let g = g44 () in
  let r = l_route g in
  Alcotest.(check bool) "connects endpoints" true (Route.connects g r [ p 0 0; p 1 1 ]);
  Alcotest.(check bool) "does not connect stranger" false
    (Route.connects g r [ p 0 0; p 3 3 ]);
  let empty = Route.of_edges g ~net:0 [] in
  Alcotest.(check bool) "same-region pins trivially connected" true
    (Route.connects g empty [ p 2 2; p 2 2 ])

let test_route_is_tree () =
  let g = g44 () in
  Alcotest.(check bool) "L is a tree" true (Route.is_tree g (l_route g));
  let cycle =
    Route.of_edges g ~net:0
      [
        Grid.edge_id g (p 0 0) Dir.H;
        Grid.edge_id g (p 1 0) Dir.V;
        Grid.edge_id g (p 0 1) Dir.H;
        Grid.edge_id g (p 0 0) Dir.V;
      ]
  in
  Alcotest.(check bool) "square is not a tree" false (Route.is_tree g cycle)

let test_route_path () =
  let g = g44 () in
  let r = l_route g in
  Alcotest.(check int) "path length" 2
    (Route.path_length g r ~source:(p 0 0) ~sink:(p 1 1));
  Alcotest.(check int) "trivial path" 0
    (Route.path_length g r ~source:(p 0 0) ~sink:(p 0 0));
  let edges = Route.path_edges g r ~source:(p 0 0) ~sink:(p 1 1) in
  Alcotest.(check int) "two path edges" 2 (List.length edges);
  Alcotest.check_raises "unreachable" Not_found (fun () ->
      ignore (Route.path_length g r ~source:(p 0 0) ~sink:(p 3 3)))

let test_route_path_branch () =
  let g = g44 () in
  (* T shape: (0,0)-(1,0)-(2,0) with branch (1,0)-(1,1) *)
  let r =
    Route.of_edges g ~net:0
      [
        Grid.edge_id g (p 0 0) Dir.H;
        Grid.edge_id g (p 1 0) Dir.H;
        Grid.edge_id g (p 1 0) Dir.V;
      ]
  in
  (* path (0,0)->(2,0) must not include the branch edge *)
  let edges = Route.path_edges g r ~source:(p 0 0) ~sink:(p 2 0) in
  Alcotest.(check int) "branch excluded" 2 (List.length edges)

let test_usage_accounting () =
  let g = g44 () in
  let u = Usage.create g ~gcell_um:60.0 in
  let r = l_route g in
  Usage.add_route u r;
  Alcotest.(check int) "nns H region 0" 1 (Usage.nns u (Grid.region_id g (p 0 0)) Dir.H);
  Alcotest.(check int) "nns V region (1,1)" 1 (Usage.nns u (Grid.region_id g (p 1 1)) Dir.V);
  Alcotest.(check int) "untouched region" 0 (Usage.nns u (Grid.region_id g (p 3 3)) Dir.H);
  Usage.add_route u r;
  Alcotest.(check int) "added twice" 2 (Usage.nns u (Grid.region_id g (p 0 0)) Dir.H)

let test_usage_shields_overflow () =
  let g = Grid.make ~w:2 ~h:2 ~hcap:2 ~vcap:2 in
  let u = Usage.create g ~gcell_um:50.0 in
  let r0 = Grid.region_id g (p 0 0) in
  Usage.set_shields u r0 Dir.H 5;
  Alcotest.(check int) "nss" 5 (Usage.nss u r0 Dir.H);
  Alcotest.(check int) "used" 5 (Usage.used u r0 Dir.H);
  Alcotest.(check int) "overflow" 3 (Usage.overflow u r0 Dir.H);
  Alcotest.(check int) "total overflow" 3 (Usage.total_overflow u);
  Alcotest.(check int) "total shields" 5 (Usage.total_shields u);
  Alcotest.(check (float 1e-9)) "utilization" 2.5 (Usage.utilization u r0 Dir.H);
  Alcotest.check_raises "negative shields"
    (Invalid_argument "Usage.set_shields: negative") (fun () ->
      Usage.set_shields u r0 Dir.H (-1))

let test_usage_area_nominal () =
  let g = Grid.make ~w:3 ~h:2 ~hcap:4 ~vcap:4 in
  let u = Usage.create g ~gcell_um:100.0 in
  let row, col, area = Usage.expanded_area u in
  Alcotest.(check (float 1e-6)) "row = 3 gcells" 300.0 row;
  Alcotest.(check (float 1e-6)) "col = 2 gcells" 200.0 col;
  Alcotest.(check (float 1e-3)) "area" 60000.0 area

let test_usage_area_expansion () =
  let g = Grid.make ~w:3 ~h:2 ~hcap:4 ~vcap:4 in
  let u = Usage.create g ~gcell_um:100.0 in
  (* 8 vertical tracks in one region of capacity 4: region width doubles *)
  Usage.set_shields u (Grid.region_id g (p 1 0)) Dir.V 8;
  let row, col, _ = Usage.expanded_area u in
  Alcotest.(check (float 1e-6)) "row grows by one gcell" 400.0 row;
  Alcotest.(check (float 1e-6)) "col unchanged (V usage)" 200.0 col;
  (* horizontal usage stretches region height -> column length *)
  Usage.set_shields u (Grid.region_id g (p 1 0)) Dir.H 6;
  let _, col2, _ = Usage.expanded_area u in
  Alcotest.(check (float 1e-6)) "col grows by half gcell" 250.0 col2

let test_usage_copy () =
  let g = g44 () in
  let u = Usage.create g ~gcell_um:60.0 in
  Usage.set_shields u 0 Dir.H 2;
  let u2 = Usage.copy u in
  Usage.set_shields u2 0 Dir.H 9;
  Alcotest.(check int) "copy is independent" 2 (Usage.nss u 0 Dir.H)

let test_usage_of_routes () =
  let g = g44 () in
  let r1 = l_route g in
  let r2 = Route.of_edges g ~net:8 [ Grid.edge_id g (p 0 0) Dir.H ] in
  let u = Usage.of_routes g ~gcell_um:60.0 [ r1; r2 ] in
  Alcotest.(check int) "stacked tracks" 2 (Usage.nns u (Grid.region_id g (p 0 0)) Dir.H)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"edge ends are adjacent and in-bounds" ~count:200
      (int_range 0 ((4 - 1) * 4 * 2 - 1))
      (fun e ->
        let g = g44 () in
        if e >= Grid.num_edges g then true
        else begin
          let a, b = Grid.edge_ends g e in
          Grid.in_bounds g a && Grid.in_bounds g b && Point.manhattan a b = 1
        end);
    (* on a non-square grid, so a slot decode that mixes up width and
       height shows *)
    Test.make ~name:"occupied matches segments" ~count:200
      (make (Gen.list_size (Gen.int_range 0 10) (Gen.int_range 0 21)))
      (fun edges ->
        let g = Grid.make ~w:5 ~h:3 ~hcap:4 ~vcap:4 in
        let r = Route.of_edges g ~net:0 edges in
        Route.occupied g r
        = List.concat_map
            (fun dir -> List.map (fun (reg, _) -> (reg, dir)) (Route.segments g r dir))
            Dir.all);
  ]

let suites =
  [
    ( "grid.grid",
      [
        Alcotest.test_case "dir" `Quick test_dir;
        Alcotest.test_case "region roundtrip" `Quick test_grid_region_roundtrip;
        Alcotest.test_case "edge roundtrip" `Quick test_grid_edge_roundtrip;
        Alcotest.test_case "edge bounds" `Quick test_grid_edge_bounds;
        Alcotest.test_case "edges_within" `Quick test_grid_edges_within;
        Alcotest.test_case "incident edges" `Quick test_grid_incident;
        Alcotest.test_case "auto capacities" `Quick test_grid_auto;
      ] );
    ( "grid.route",
      [
        Alcotest.test_case "basics" `Quick test_route_basics;
        Alcotest.test_case "dedup" `Quick test_route_dedup;
        Alcotest.test_case "segments" `Quick test_route_segments;
        Alcotest.test_case "segments through" `Quick test_route_segments_through;
        Alcotest.test_case "occupied" `Quick test_route_occupied;
        Alcotest.test_case "connects" `Quick test_route_connects;
        Alcotest.test_case "is_tree" `Quick test_route_is_tree;
        Alcotest.test_case "path" `Quick test_route_path;
        Alcotest.test_case "path avoids branch" `Quick test_route_path_branch;
      ] );
    ( "grid.usage",
      [
        Alcotest.test_case "accounting" `Quick test_usage_accounting;
        Alcotest.test_case "shields and overflow" `Quick test_usage_shields_overflow;
        Alcotest.test_case "nominal area" `Quick test_usage_area_nominal;
        Alcotest.test_case "area expansion" `Quick test_usage_area_expansion;
        Alcotest.test_case "copy" `Quick test_usage_copy;
        Alcotest.test_case "of_routes" `Quick test_usage_of_routes;
      ] );
    ("grid.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
