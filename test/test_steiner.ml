(* Tests for Eda_steiner: rectilinear MST and Steiner estimates. *)
module Point = Eda_geom.Point
module Rmst = Eda_steiner.Rmst
module Rsmt = Eda_steiner.Rsmt

let p = Point.make

let test_rmst_trivial () =
  Alcotest.(check int) "empty" 0 (Rmst.length [||]);
  Alcotest.(check int) "single" 0 (Rmst.length [| p 3 3 |]);
  Alcotest.(check (list (pair int int))) "no edges" [] (Rmst.tree [| p 0 0 |])

let test_rmst_two_points () =
  Alcotest.(check int) "manhattan" 7 (Rmst.length [| p 0 0; p 3 4 |]);
  Alcotest.(check int) "one edge" 1 (List.length (Rmst.tree [| p 0 0; p 3 4 |]))

let test_rmst_collinear () =
  Alcotest.(check int) "chain" 10 (Rmst.length [| p 0 0; p 4 0; p 10 0; p 7 0 |])

let test_rmst_square () =
  (* unit square: MST = 3 edges of length 1 *)
  Alcotest.(check int) "square" 3 (Rmst.length [| p 0 0; p 1 0; p 0 1; p 1 1 |])

let test_rmst_tree_spans () =
  let pts = [| p 0 0; p 5 2; p 3 7; p 8 8; p 1 4 |] in
  let edges = Rmst.tree pts in
  Alcotest.(check int) "n-1 edges" (Array.length pts - 1) (List.length edges);
  let uf = Eda_util.Union_find.create (Array.length pts) in
  List.iter (fun (i, j) -> ignore (Eda_util.Union_find.union uf i j)) edges;
  Alcotest.(check int) "spanning" 1 (Eda_util.Union_find.count uf)

let test_rsmt_two_points () =
  Alcotest.(check int) "2 pins = manhattan" 7 (Rsmt.length [| p 0 0; p 3 4 |])

let test_rsmt_three_pins_hpwl () =
  (* for 3 pins the RSMT is the bbox half-perimeter (median star) *)
  let pts = [| p 0 0; p 4 1; p 2 5 |] in
  Alcotest.(check int) "3-pin star" (4 + 5) (Rsmt.length pts);
  Alcotest.(check bool) "steiner point used" true
    (List.length (Rsmt.rectilinear_edges pts) > Array.length pts - 1)

let test_rsmt_plus_sign () =
  (* N/S/E/W cross: RMST = 3 * 2 = 6; one Steiner point at center gives 4 *)
  let pts = [| p 1 0; p 1 2; p 0 1; p 2 1 |] in
  Alcotest.(check int) "rmst 6" 6 (Rmst.length pts);
  Alcotest.(check int) "rsmt 4" 4 (Rsmt.length pts)

let test_rsmt_never_worse () =
  let rng = Eda_util.Rng.create 42 in
  for _ = 1 to 50 do
    let k = Eda_util.Rng.int_in rng 2 7 in
    let pts =
      Array.init k (fun _ ->
          p (Eda_util.Rng.int rng 20) (Eda_util.Rng.int rng 20))
    in
    Alcotest.(check bool) "rsmt <= rmst" true (Rsmt.length pts <= Rmst.length pts)
  done

let test_rsmt_duplicates () =
  Alcotest.(check int) "dup pins collapse" 7 (Rsmt.length [| p 0 0; p 0 0; p 3 4 |])

let test_rsmt_edges_connect () =
  let pts = [| p 0 0; p 4 1; p 2 5; p 6 6 |] in
  let edges = Rsmt.rectilinear_edges pts in
  (* every tree edge is a point pair; the union must connect all pins *)
  let key q = (q.Point.x, q.Point.y) in
  let ids = Hashtbl.create 16 in
  let intern q =
    match Hashtbl.find_opt ids (key q) with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids (key q) i;
        i
  in
  let pairs = List.map (fun (a, b) -> (intern a, intern b)) edges in
  let uf = Eda_util.Union_find.create (Hashtbl.length ids) in
  List.iter (fun (a, b) -> ignore (Eda_util.Union_find.union uf a b)) pairs;
  Array.iter
    (fun q ->
      Alcotest.(check bool) "pin in tree" true (Hashtbl.mem ids (key q)))
    pts;
  Alcotest.(check int) "connected" 1 (Eda_util.Union_find.count uf)

let test_rsmt_lower_bound () =
  (* RSMT >= bbox half-perimeter always *)
  let rng = Eda_util.Rng.create 7 in
  for _ = 1 to 50 do
    let k = Eda_util.Rng.int_in rng 2 6 in
    let pts =
      Array.init k (fun _ ->
          p (Eda_util.Rng.int rng 15) (Eda_util.Rng.int rng 15))
    in
    let hp = Eda_geom.Rect.half_perimeter (Eda_geom.Rect.of_points (Array.to_list pts)) in
    Alcotest.(check bool) "rsmt >= hpwl" true (Rsmt.length pts >= hp)
  done

let qcheck_tests =
  let open QCheck in
  let pt = Gen.map2 Point.make (Gen.int_range 0 30) (Gen.int_range 0 30) in
  [
    Test.make ~name:"rsmt between hpwl and rmst" ~count:150
      (make (Gen.array_size (Gen.int_range 2 8) pt))
      (fun pts ->
        let hp =
          Eda_geom.Rect.half_perimeter (Eda_geom.Rect.of_points (Array.to_list pts))
        in
        let s = Rsmt.length pts in
        hp <= s && s <= Rmst.length pts);
  ]

let suites =
  [
    ( "steiner.rmst",
      [
        Alcotest.test_case "trivial" `Quick test_rmst_trivial;
        Alcotest.test_case "two points" `Quick test_rmst_two_points;
        Alcotest.test_case "collinear" `Quick test_rmst_collinear;
        Alcotest.test_case "square" `Quick test_rmst_square;
        Alcotest.test_case "tree spans" `Quick test_rmst_tree_spans;
      ] );
    ( "steiner.rsmt",
      [
        Alcotest.test_case "two points" `Quick test_rsmt_two_points;
        Alcotest.test_case "3-pin star" `Quick test_rsmt_three_pins_hpwl;
        Alcotest.test_case "plus sign" `Quick test_rsmt_plus_sign;
        Alcotest.test_case "never worse than rmst" `Quick test_rsmt_never_worse;
        Alcotest.test_case "duplicate pins" `Quick test_rsmt_duplicates;
        Alcotest.test_case "edges connect pins" `Quick test_rsmt_edges_connect;
        Alcotest.test_case "lower bound" `Quick test_rsmt_lower_bound;
      ] );
    ("steiner.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
