(* Tests for Eda_obs.Diff and the metrics JSON import path it rides on:
   snapshot round-trips through gsino-metrics-v1, histogram quantiles,
   diff classification, and the regression-policy gate. *)
module Json = Eda_obs.Json
module Metrics = Eda_obs.Metrics
module Diff = Eda_obs.Diff

let fresh () =
  Metrics.reset ();
  Eda_obs.Trace.disable ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let of_json_exn j =
  match Metrics.of_json j with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_json: %s" msg

let policy_of_string s =
  match Json.of_string s with
  | Error msg -> Alcotest.failf "policy json: %s" msg
  | Ok j -> (
      match Diff.policy_of_json j with
      | Ok p -> p
      | Error msg -> Alcotest.failf "policy_of_json: %s" msg)

(* ------------------------- snapshot import -------------------------- *)

let test_snapshot_json_roundtrip () =
  fresh ();
  Metrics.add (Metrics.counter "t.c") 7;
  Metrics.add (Metrics.counter ~labels:[ ("kind", "GSINO") ] "t.c") 3;
  Metrics.set (Metrics.gauge "t.g") 2.5;
  let h = Metrics.histogram ~labels:[ ("phase", "x") ] "t.h" in
  List.iter (Metrics.observe h) [ 0.4; 3.0; 3.5; 700.0 ];
  let snap = Metrics.snapshot () in
  let snap' = of_json_exn (Metrics.to_json snap) in
  Alcotest.(check bool)
    "of_json (to_json s) = s" true
    (Metrics.entries snap = Metrics.entries snap')

let test_empty_histogram_roundtrip () =
  fresh ();
  ignore (Metrics.histogram "t.empty");
  let snap = Metrics.snapshot () in
  let snap' = of_json_exn (Metrics.to_json snap) in
  (* min/max are non-finite when empty; the JSON encodes them as null *)
  Alcotest.(check bool)
    "empty histogram survives" true
    (Metrics.entries snap = Metrics.entries snap')

let test_of_json_rejects () =
  let bad s =
    match Json.of_string s with
    | Error _ -> true
    | Ok j -> (
        match Metrics.of_json j with Ok _ -> false | Error _ -> true)
  in
  Alcotest.(check bool) "wrong schema" true
    (bad "{\"schema\":\"nope\",\"metrics\":[]}");
  Alcotest.(check bool) "missing metrics" true
    (bad "{\"schema\":\"gsino-metrics-v1\"}");
  Alcotest.(check bool) "bad kind" true
    (bad
       "{\"schema\":\"gsino-metrics-v1\",\"metrics\":[{\"name\":\"x\",\"labels\":{},\"kind\":\"meter\",\"value\":1}]}");
  Alcotest.(check bool) "bad bucket le" true
    (bad
       "{\"schema\":\"gsino-metrics-v1\",\"metrics\":[{\"name\":\"x\",\"labels\":{},\"kind\":\"histogram\",\"count\":1,\"sum\":3.0,\"min\":3.0,\"max\":3.0,\"buckets\":[{\"le\":3.0,\"count\":1}]}]}")

(* --------------------------- quantiles ------------------------------ *)

let test_quantile () =
  fresh ();
  let h = Metrics.histogram "t.q" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let s = Metrics.histogram_summary h in
  let q p = Metrics.quantile s p in
  Alcotest.(check bool) "p0 = min" true (q 0.0 = 1.0);
  Alcotest.(check bool) "p100 = max" true (q 1.0 = 100.0);
  (* log2 buckets: interior quantiles are right within a factor of 2 *)
  Alcotest.(check bool) "p50 in [25,100]" true (q 0.5 >= 25.0 && q 0.5 <= 100.0);
  Alcotest.(check bool) "p95 in [47,100]" true (q 0.95 >= 47.0 && q 0.95 <= 100.0);
  Alcotest.(check bool) "monotone" true (q 0.5 <= q 0.95 && q 0.95 <= q 0.99);
  let empty = Metrics.histogram_summary (Metrics.histogram "t.q.empty") in
  Alcotest.(check bool) "empty -> 0" true (Metrics.quantile empty 0.5 = 0.0)

(* ------------------------------ diff -------------------------------- *)

(* Build a snapshot via the JSON import, not the global registry —
   registrations survive Metrics.reset, so registry-built snapshots can
   never *lack* a series another test registered. *)
let snap_json entries =
  let metric (name, labels, v) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels));
        ("kind", Json.Str "counter");
        ("value", Json.Int v);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "gsino-metrics-v1");
      ("metrics", Json.List (List.map metric entries));
    ]

let snap_of entries = of_json_exn (snap_json entries)

let test_diff_classification () =
  let before = snap_of [ ("a", [], 1); ("b", [], 2); ("c", [], 3) ] in
  let after = snap_of [ ("b", [], 2); ("c", [], 9); ("d", [], 4) ] in
  let entries = Diff.diff before after in
  let change name =
    match List.find_opt (fun e -> e.Diff.name = name) entries with
    | Some e -> e.Diff.change
    | None -> Alcotest.failf "series %s missing from diff" name
  in
  (match change "a" with
  | Diff.Removed s -> Alcotest.(check bool) "removed value" true (s.Diff.value = 1.0)
  | Diff.Added _ | Diff.Changed _ | Diff.Unchanged _ ->
      Alcotest.fail "a should be Removed");
  (match change "b" with
  | Diff.Unchanged _ -> ()
  | Diff.Added _ | Diff.Removed _ | Diff.Changed _ ->
      Alcotest.fail "b should be Unchanged");
  (match change "c" with
  | Diff.Changed { before = b; after = a; _ } ->
      Alcotest.(check bool) "delta" true (b = 3.0 && a = 9.0)
  | Diff.Added _ | Diff.Removed _ | Diff.Unchanged _ ->
      Alcotest.fail "c should be Changed");
  (match change "d" with
  | Diff.Added s -> Alcotest.(check bool) "added value" true (s.Diff.value = 4.0)
  | Diff.Removed _ | Diff.Changed _ | Diff.Unchanged _ ->
      Alcotest.fail "d should be Added");
  Alcotest.(check int) "changed count" 3
    (List.length (List.filter Diff.changed entries))

let test_diff_labels_align () =
  let before = snap_of [ ("m", [ ("kind", "A") ], 1); ("m", [ ("kind", "B") ], 2) ] in
  let after = snap_of [ ("m", [ ("kind", "A") ], 1); ("m", [ ("kind", "B") ], 5) ] in
  let entries = Diff.diff before after in
  Alcotest.(check int) "two series" 2 (List.length entries);
  Alcotest.(check int) "only B drifted" 1
    (List.length (List.filter Diff.changed entries))

(* ----------------------------- policy ------------------------------- *)

let gate policy before after = Diff.check policy (Diff.diff before after)

let test_policy_parse () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\",\"max_abs\":2,\"direction\":\"both\"},{\"metric\":\"n\",\"max_rel\":0.05}]}"
  in
  Alcotest.(check int) "two tolerances" 2 (List.length p.Diff.tolerances);
  (match p.Diff.tolerances with
  | [ t1; t2 ] ->
      Alcotest.(check bool) "m abs" true (t1.Diff.max_abs = Some 2.0);
      Alcotest.(check bool) "m dir" true (t1.Diff.direction = Diff.Any_change);
      Alcotest.(check bool) "n rel" true (t2.Diff.max_rel = Some 0.05);
      Alcotest.(check bool) "n dir defaults up" true (t2.Diff.direction = Diff.Up)
  | _ -> Alcotest.fail "tolerance list shape");
  match Json.of_string "{\"schema\":\"gsino-diff-policy-v1\"}" with
  | Error msg -> Alcotest.failf "setup: %s" msg
  | Ok j -> (
      match Diff.policy_of_json j with
      | Ok _ -> Alcotest.fail "missing tolerances accepted"
      | Error _ -> ())

let test_policy_within_tolerance () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\",\"max_abs\":2}]}"
  in
  let before = snap_of [ ("m", [], 10) ] in
  let after = snap_of [ ("m", [], 12) ] in
  Alcotest.(check int) "within abs" 0 (List.length (gate p before after));
  let worse = snap_of [ ("m", [], 13) ] in
  Alcotest.(check int) "beyond abs" 1 (List.length (gate p before worse))

let test_policy_direction_up_allows_improvement () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\",\"max_abs\":0}]}"
  in
  let before = snap_of [ ("m", [], 10) ] in
  let better = snap_of [ ("m", [], 2) ] in
  Alcotest.(check int) "drop is not a breach" 0
    (List.length (gate p before better));
  let worse = snap_of [ ("m", [], 11) ] in
  Alcotest.(check int) "rise is" 1 (List.length (gate p before worse))

let test_policy_rel_tolerance () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\",\"max_rel\":0.10}]}"
  in
  let before = snap_of [ ("m", [], 100) ] in
  Alcotest.(check int) "9% ok" 0
    (List.length (gate p before (snap_of [ ("m", [], 109) ])));
  Alcotest.(check int) "11% breach" 1
    (List.length (gate p before (snap_of [ ("m", [], 111) ])))

let test_policy_added_removed_absent_breach () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\",\"max_abs\":100}]}"
  in
  let with_m = snap_of [ ("m", [], 1); ("x", [], 1) ] in
  let without_m = snap_of [ ("x", [], 1) ] in
  Alcotest.(check int) "guarded series removed" 1
    (List.length (gate p with_m without_m));
  Alcotest.(check int) "guarded series added" 1
    (List.length (gate p without_m with_m));
  (* a guarded metric in neither snapshot means the policy is stale *)
  match gate p without_m without_m with
  | [ b ] -> Alcotest.(check bool) "absent flagged" true (b.Diff.entry = None)
  | l -> Alcotest.failf "expected 1 absent-breach, got %d" (List.length l)

let test_pp_entry_renders () =
  let before = snap_of [ ("m", [ ("kind", "A") ], 3) ] in
  let after = snap_of [ ("m", [ ("kind", "A") ], 5) ] in
  match Diff.diff before after with
  | [ e ] ->
      let s = Format.asprintf "%a" Diff.pp_entry e in
      Alcotest.(check bool) "series name" true (contains ~sub:"m{kind=A}" s)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* ----------------------------- exclude ------------------------------ *)

let test_policy_exclude_parse_and_filter () =
  let p =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"exclude\":[\"prof.\",\"gc.\"],\"tolerances\":[{\"metric\":\"m\",\"max_abs\":0}]}"
  in
  Alcotest.(check (list string)) "prefixes kept in order" [ "prof."; "gc." ]
    p.Diff.exclude;
  Alcotest.(check bool) "prefix matches" true (Diff.excluded p "prof.self_us");
  Alcotest.(check bool) "other names pass" false
    (Diff.excluded p "flow.violations");
  Alcotest.(check bool) "prefix, not substring" false
    (Diff.excluded p "xprof.self_us");
  (* excluded series vanish from the diff before rendering and gating:
     a wild prof.* drift must not trip the m guard *)
  let before =
    snap_of [ ("m", [], 1); ("prof.self_us", [], 10); ("gc.minor_words", [], 5) ]
  in
  let after = snap_of [ ("m", [], 1); ("prof.self_us", [], 9999) ] in
  let entries = Diff.apply_exclude p (Diff.diff before after) in
  Alcotest.(check (list string)) "only the guarded series left" [ "m" ]
    (List.map (fun e -> e.Diff.name) entries);
  Alcotest.(check int) "gate unaffected by volatile drift" 0
    (List.length (Diff.check p entries));
  (* a policy without the key parses to no excludes *)
  let p0 =
    policy_of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"tolerances\":[{\"metric\":\"m\"}]}"
  in
  Alcotest.(check (list string)) "default empty" [] p0.Diff.exclude;
  (* non-string members are rejected *)
  match
    Json.of_string
      "{\"schema\":\"gsino-diff-policy-v1\",\"exclude\":[1],\"tolerances\":[]}"
  with
  | Error msg -> Alcotest.failf "setup: %s" msg
  | Ok j -> (
      match Diff.policy_of_json j with
      | Ok _ -> Alcotest.fail "numeric exclude accepted"
      | Error _ -> ())

let suites =
  [
    ( "obs.diff",
      [
        Alcotest.test_case "snapshot json roundtrip" `Quick
          test_snapshot_json_roundtrip;
        Alcotest.test_case "empty histogram roundtrip" `Quick
          test_empty_histogram_roundtrip;
        Alcotest.test_case "of_json rejects" `Quick test_of_json_rejects;
        Alcotest.test_case "quantile" `Quick test_quantile;
        Alcotest.test_case "classification" `Quick test_diff_classification;
        Alcotest.test_case "labels align" `Quick test_diff_labels_align;
        Alcotest.test_case "policy parse" `Quick test_policy_parse;
        Alcotest.test_case "abs tolerance" `Quick test_policy_within_tolerance;
        Alcotest.test_case "up allows improvement" `Quick
          test_policy_direction_up_allows_improvement;
        Alcotest.test_case "rel tolerance" `Quick test_policy_rel_tolerance;
        Alcotest.test_case "added/removed/absent breach" `Quick
          test_policy_added_removed_absent_breach;
        Alcotest.test_case "pp_entry" `Quick test_pp_entry_renders;
        Alcotest.test_case "exclude prefixes" `Quick
          test_policy_exclude_parse_and_filter;
      ] );
  ]
