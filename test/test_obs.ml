(* Tests for Eda_obs: metrics registry arithmetic, span tracing
   invariants, JSON round-trips, and the disabled-mode no-op paths. *)
module Json = Eda_obs.Json
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace
module Log = Eda_obs.Log

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let check_float ?eps msg a b = Alcotest.(check bool) msg true (feq ?eps a b)

(* Every test runs in a registry of its own, with tracing off;
   registrations are process-global and the whole binary shares them. *)
let fresh f =
  Trace.disable ();
  Metrics.with_registry (Metrics.fresh_registry ()) f

(* ---------------------------- Json --------------------------------- *)

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip equal" true (roundtrip j = j)

let test_json_nonfinite_is_null () =
  (* Chrome's importer rejects NaN/Infinity literals *)
  Alcotest.(check bool)
    "nan -> null" true
    (roundtrip (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ])
    = Json.List [ Json.Null; Json.Null ])

let test_json_rejects_garbage () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "flase");
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "two values" true (bad "1 2");
  Alcotest.(check bool) "two lists" true (bad "[1] []");
  Alcotest.(check bool) "second object" true (bad "{\"a\":1}{\"b\":2}")

(* The parser's nesting bound: arrays and objects exactly [max_depth]
   deep parse, one level more is an error, not a stack-deep descent. *)
let test_json_nesting_bound () =
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> "{\"a\":")) ^ "1" ^ String.make n '}'
  in
  let parses s = Result.is_ok (Json.of_string s) in
  Alcotest.(check bool) "arrays at the bound" true (parses (arrays Json.max_depth));
  Alcotest.(check bool) "arrays past the bound" false
    (parses (arrays (Json.max_depth + 1)));
  Alcotest.(check bool) "objects at the bound" true
    (parses (objects Json.max_depth));
  Alcotest.(check bool) "objects past the bound" false
    (parses (objects (Json.max_depth + 1)))

let test_json_typed_readers () =
  let j =
    match
      Json.of_string
        {|{"s":"x","i":3,"f":2.5,"b":true,"l":[1,2],
           "d":{"b":"2","a":"1"},"dd":{"a":"1","a":"2"}}|}
    with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  let read f = Json.decode f j in
  let get k = Json.field "doc" j k in
  Alcotest.(check (result string string)) "str" (Ok "x")
    (read (fun _ -> Json.str "s" (get "s")));
  Alcotest.(check (result (float 0.0) string)) "int as num" (Ok 3.0)
    (read (fun _ -> Json.num "i" (get "i")));
  Alcotest.(check (result (list int) string)) "list" (Ok [ 1; 2 ])
    (read (fun _ -> Json.list "l" Json.int (get "l")));
  Alcotest.(check (result (list (pair string string)) string)) "dict sorted"
    (Ok [ ("a", "1"); ("b", "2") ])
    (read (fun _ -> Json.dict "d" Json.str (get "d")));
  Alcotest.(check (result (list (pair string string)) string)) "dict duplicate"
    (Error "dd: duplicate key a")
    (read (fun _ -> Json.dict "dd" Json.str (get "dd")));
  Alcotest.(check (result int string)) "float is no int"
    (Error "f: expected an integer")
    (read (fun _ -> Json.int "f" (get "f")));
  Alcotest.(check (result bool string)) "missing field"
    (Error "doc: missing field nope")
    (read (fun _ -> Json.bool "b" (get "nope")));
  Alcotest.(check (result unit string)) "no schema"
    (Error "missing schema header (want s-v1)")
    (read (Json.schema "s-v1"))

(* RFC 8259's number grammar, not OCaml's conversions *)
let test_json_strict_numbers () =
  let parses tok = Result.is_ok (Json.of_string tok) in
  List.iter
    (fun tok -> Alcotest.(check bool) ("accepts " ^ tok) true (parses tok))
    [ "0"; "-0"; "7"; "-12"; "0.5"; "-0.25"; "1e5"; "1E+2"; "2.5e-07"; "10.0" ];
  List.iter
    (fun tok -> Alcotest.(check bool) ("rejects " ^ tok) false (parses tok))
    [ "+1"; "01"; "-01"; ".5"; "-.5"; "1."; "1.e3"; "1e"; "1e+"; "-"; "0x1F"; "--1" ]

let test_json_unicode_escape () =
  match Json.of_string "\"a\\u00e9b\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "utf-8" "a\xc3\xa9b" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape did not parse to Str"

let test_json_surrogate_pair () =
  (* U+1F600 as a surrogate pair -> one 4-byte UTF-8 code point *)
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "astral" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair did not parse");
  (* a lone high surrogate keeps its own 3-byte encoding *)
  match Json.of_string "\"\\ud83dx\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "lone surrogate" "\xed\xa0\xbdx" s
  | Ok _ | Error _ -> Alcotest.fail "lone surrogate did not parse"

let test_json_bad_unicode_escape () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "non-hex digit" true (bad "\"\\u12g4\"");
  (* int_of_string liberties like underscores or 0x must not leak in *)
  Alcotest.(check bool) "underscore" true (bad "\"\\u1_23\"");
  Alcotest.(check bool) "0x prefix" true (bad "\"\\u0x12\"");
  Alcotest.(check bool) "too short" true (bad "\"\\u12\"")

let test_json_member () =
  let j = Json.Obj [ ("a", Json.Int 1) ] in
  Alcotest.(check bool) "hit" true (Json.member "a" j = Some (Json.Int 1));
  Alcotest.(check bool) "miss" true (Json.member "b" j = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" Json.Null = None)

(* --------------------------- Metrics ------------------------------- *)

let test_counter_arithmetic () =
  fresh @@ fun () ->
  let c = Metrics.counter "t.counter" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  (* registration is idempotent: same name -> same cell *)
  Metrics.incr (Metrics.counter "t.counter");
  Alcotest.(check int) "same instrument" 43 (Metrics.counter_value c)

let test_gauge_set_accum () =
  fresh @@ fun () ->
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  Metrics.accum g 0.5;
  check_float "set + accum" 3.0 (Metrics.gauge_value g)

let test_labels_distinguish () =
  fresh @@ fun () ->
  let h = Metrics.counter ~labels:[ ("dir", "H") ] "t.panels" in
  let v = Metrics.counter ~labels:[ ("dir", "V") ] "t.panels" in
  Metrics.add h 3;
  Metrics.incr v;
  Alcotest.(check int) "H" 3 (Metrics.counter_value h);
  Alcotest.(check int) "V" 1 (Metrics.counter_value v);
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "total across labels" 4
    (Metrics.counter_total snap "t.panels")

let test_kind_mismatch_rejected () =
  fresh @@ fun () ->
  ignore (Metrics.counter "t.kind");
  Alcotest.(check bool)
    "gauge under a counter name" true
    (match Metrics.gauge "t.kind" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_histogram_summary () =
  fresh @@ fun () ->
  let h = Metrics.histogram "t.hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 1024.0 ];
  let s = Metrics.histogram_summary h in
  Alcotest.(check int) "count" 4 s.Metrics.count;
  check_float "sum" 1030.0 s.Metrics.sum;
  check_float "min" 1.0 s.Metrics.min;
  check_float "max" 1024.0 s.Metrics.max;
  check_float "mean" 257.5 (Metrics.histogram_mean s);
  (* 1.0 lands in [1,2); 2.0 and 3.0 in [2,4): one bucket holds 2 *)
  Alcotest.(check bool)
    "log2 bucketing" true
    (List.exists (fun (_, n) -> n = 2) s.Metrics.buckets)

(* Two snapshots replayed into one registry merge: counters and
   histograms add, and a gauge takes the later snapshot's value. *)
let test_snapshot_find_and_merge () =
  fresh @@ fun () ->
  let c = Metrics.counter "t.c" in
  let g = Metrics.gauge "t.g" in
  let h = Metrics.histogram "t.h" in
  Metrics.add c 5;
  Metrics.set g 1.0;
  Metrics.observe h 8.0;
  let a = Metrics.snapshot () in
  Metrics.add c 2;
  Metrics.set g 9.0;
  Metrics.observe h 8.0;
  let b = Metrics.snapshot () in
  let (), m =
    Metrics.record (fun () ->
        Metrics.replay a;
        Metrics.replay b)
  in
  (match Metrics.find m "t.c" with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "counters add" 12 n
  | Some (Metrics.Gauge _ | Metrics.Histogram _) | None ->
      Alcotest.fail "t.c missing or wrong kind");
  (match Metrics.find m "t.g" with
  | Some (Metrics.Gauge v) -> check_float "gauge right-wins" 9.0 v
  | Some (Metrics.Counter _ | Metrics.Histogram _) | None ->
      Alcotest.fail "t.g missing or wrong kind");
  match Metrics.find m "t.h" with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "histograms add" 3 s.Metrics.count
  | Some (Metrics.Counter _ | Metrics.Gauge _) | None ->
      Alcotest.fail "t.h missing or wrong kind"

let test_metrics_json_parses () =
  fresh @@ fun () ->
  Metrics.add (Metrics.counter "t.c") 7;
  Metrics.observe (Metrics.histogram ~labels:[ ("phase", "x") ] "t.h") 3.0;
  let j = Metrics.to_json (Metrics.snapshot ()) in
  let j' = roundtrip j in
  (match Json.member "schema" j' with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "gsino-metrics-v1" s
  | Some _ | None -> Alcotest.fail "schema field missing");
  match Json.member "metrics" j' with
  | Some (Json.List (_ :: _)) -> ()
  | Some _ | None -> Alcotest.fail "metrics array missing or empty"

let test_with_registry_restores () =
  fresh @@ fun () ->
  let c = Metrics.counter "t.scoped" in
  Metrics.add c 2;
  let outer = Metrics.current_registry () in
  Metrics.with_registry (Metrics.fresh_registry ()) (fun () ->
      Alcotest.(check bool) "swapped in" true
        (Metrics.current_registry () != outer);
      Metrics.add c 40;
      Alcotest.(check int) "own cell" 40 (Metrics.counter_value c));
  Alcotest.(check bool) "restored on return" true
    (Metrics.current_registry () == outer);
  Alcotest.(check int) "outer cell untouched" 2 (Metrics.counter_value c);
  (match
     Metrics.with_registry (Metrics.fresh_registry ()) (fun () ->
         failwith "boom")
   with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "restored on exception" true
    (Metrics.current_registry () == outer)

(* A replay stands for recording done here: counters and histograms
   add, a gauge takes the recorded value and a zero entry still shows,
   so replaying twice equals recording twice. *)
let test_replay_equals_recording () =
  let c = Metrics.counter "t.replay_c" and g = Metrics.gauge "t.replay_g" in
  let h = Metrics.histogram "t.replay_h" and z = Metrics.counter "t.replay_zero" in
  let record () =
    Metrics.add c 3;
    Metrics.set g 2.5;
    Metrics.observe h 4.0;
    ignore (Metrics.counter_value z)
  in
  let twice f =
    let (), snap =
      Metrics.record (fun () ->
          f ();
          f ())
    in
    Metrics.entries snap
  in
  let (), snap = Metrics.record record in
  let replayed = twice (fun () -> Metrics.replay snap) in
  Alcotest.(check bool) "two replays equal two recordings" true
    (twice record = replayed);
  Alcotest.(check bool) "gauge set, not added" true
    (List.mem ("t.replay_g", [], Metrics.Gauge 2.5) replayed);
  Alcotest.(check bool) "zero entry materialised" true
    (List.mem ("t.replay_zero", [], Metrics.Counter 0) replayed)

let test_zeroed_copy () =
  fresh @@ fun () ->
  let c = Metrics.counter "t.template_c" in
  Metrics.add c 5;
  Metrics.observe (Metrics.histogram "t.template_h") 2.0;
  let snapshot_of r = Metrics.with_registry r Metrics.snapshot in
  let template = Metrics.zeroed_copy (Metrics.current_registry ()) in
  let before = snapshot_of template in
  let names snap = List.map (fun (n, l, _) -> (n, l)) (Metrics.entries snap) in
  Alcotest.(check bool) "same series as the source" true
    (names before = names (Metrics.snapshot ()));
  Alcotest.(check bool) "all at zero" true
    (List.for_all
       (fun (_, _, v) ->
         match v with
         | Metrics.Counter n -> n = 0
         | Metrics.Gauge g -> g = 0.0
         | Metrics.Histogram h -> h.Metrics.count = 0)
       (Metrics.entries before));
  let copy = Metrics.zeroed_copy template in
  Metrics.with_registry copy (fun () ->
      Metrics.add c 7;
      Metrics.incr (Metrics.counter "t.copy_only"));
  Alcotest.(check bool) "copy recorded" true
    (Metrics.find (snapshot_of copy) "t.copy_only" = Some (Metrics.Counter 1));
  Alcotest.(check bool) "template unchanged" true
    (snapshot_of template = before);
  Alcotest.(check int) "source unchanged" 5 (Metrics.counter_value c)

(* ---------------------------- Trace -------------------------------- *)

let test_span_nesting () =
  fresh @@ fun () ->
  Trace.enable ();
  let r =
    Trace.span "outer" (fun () ->
        Alcotest.(check int) "depth inside outer" 1 (Trace.depth ());
        Trace.span "inner" (fun () ->
            Alcotest.(check int) "depth inside inner" 2 (Trace.depth ());
            17))
  in
  Alcotest.(check int) "result threaded" 17 r;
  Alcotest.(check int) "depth back to 0" 0 (Trace.depth ());
  let evs = Trace.events () in
  Alcotest.(check int) "2 B + 2 E" 4 (List.length evs);
  let b = List.filter (fun e -> e.Trace.ph = Trace.B) evs in
  let e = List.filter (fun e -> e.Trace.ph = Trace.E) evs in
  Alcotest.(check int) "balanced" (List.length b) (List.length e);
  (* timestamps non-decreasing, oldest first *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Trace.ts_us <= b.Trace.ts_us && mono rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone ts" true (mono evs);
  Trace.disable ()

let test_span_closes_on_raise () =
  fresh @@ fun () ->
  Trace.enable ();
  (try Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "depth restored" 0 (Trace.depth ());
  let evs = Trace.events () in
  Alcotest.(check bool)
    "end event emitted" true
    (List.exists (fun e -> e.Trace.ph = Trace.E) evs);
  Trace.disable ()

let test_ring_capacity_and_dropped () =
  fresh @@ fun () ->
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "i%d" i)
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "capacity bounds buffer" 4 (List.length evs);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped ());
  (* the survivors are the newest, oldest first *)
  Alcotest.(check (list string))
    "newest kept" [ "i7"; "i8"; "i9"; "i10" ]
    (List.map (fun e -> e.Trace.name) evs);
  Trace.disable ()

let test_dropped_spans_counter () =
  fresh @@ fun () ->
  Trace.enable ~capacity:4 ();
  (* 5 spans = 10 events through a 4-slot ring: 6 events evicted, of
     which 3 are B events — 3 spans lost their begin *)
  for i = 1 to 5 do
    Trace.span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "raw evicted events" 6 (Trace.dropped ());
  Alcotest.(check int) "spans lost" 3 (Trace.dropped_spans ());
  (* the span count (not the raw event count) is what the exported
     metrics mirror *)
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter mirrors dropped_spans ()"
    (Trace.dropped_spans ())
    (Metrics.counter_total snap "trace.dropped_spans");
  Trace.disable ()

let test_instants_are_not_dropped_spans () =
  fresh @@ fun () ->
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "d%d" i)
  done;
  (* instants evicted from the ring orphan nothing: no span was lost *)
  Alcotest.(check int) "raw evicted events" 6 (Trace.dropped ());
  Alcotest.(check int) "no spans lost" 0 (Trace.dropped_spans ());
  Alcotest.(check int) "counter stays 0" 0
    (Metrics.counter_total (Metrics.snapshot ()) "trace.dropped_spans");
  Trace.disable ()

let test_paired_events_drop_orphans () =
  fresh @@ fun () ->
  Trace.enable ~capacity:3 ();
  (* stream B1 E1 ... B5 E5; the 3 survivors are E4 B5 E5 — E4's begin
     was evicted, so the pair-safe view must drop it *)
  for i = 1 to 5 do
    Trace.span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "raw view keeps orphan" 3
    (List.length (Trace.events ()));
  let paired = Trace.paired_events () in
  Alcotest.(check (list string))
    "orphan E filtered" [ "s5"; "s5" ]
    (List.map (fun e -> e.Trace.name) paired);
  Alcotest.(check bool)
    "B before E" true
    (match paired with
    | [ b; e ] -> b.Trace.ph = Trace.B && e.Trace.ph = Trace.E
    | _ -> false);
  (* the chrome export uses the pair-safe view and reports the loss *)
  let j = Trace.to_chrome_json () in
  (match Json.member "traceEvents" j with
  | Some (Json.List evs) -> Alcotest.(check int) "export pair-safe" 2 (List.length evs)
  | Some _ | None -> Alcotest.fail "traceEvents missing");
  (match Json.member "otherData" j with
  | Some other -> (
      match Json.member "droppedSpans" other with
      | Some (Json.Int n) -> Alcotest.(check int) "droppedSpans exported" 4 n
      | Some _ | None -> Alcotest.fail "droppedSpans missing")
  | None -> Alcotest.fail "otherData missing");
  Trace.disable ()

let test_unclosed_span_kept_in_paired () =
  fresh @@ fun () ->
  Trace.enable ();
  Trace.span "outer" (fun () ->
      Trace.instant "inside";
      (* snapshot taken while the span is still open: its pending B is a
         running span and must be kept — only orphaned Es are dropped *)
      Alcotest.(check int) "open B kept" 2
        (List.length (Trace.paired_events ())));
  Alcotest.(check int) "balanced afterwards" 3
    (List.length (Trace.paired_events ()));
  Trace.disable ()

let test_clock_monotone () =
  let a = Eda_obs.Clock.now_ns () in
  let b = Eda_obs.Clock.now_ns () in
  Alcotest.(check bool) "ns non-decreasing" true (Int64.compare a b <= 0);
  let t0 = Eda_obs.Clock.now_s () in
  Alcotest.(check bool) "seconds positive" true (t0 > 0.0);
  Alcotest.(check bool) "elapsed non-negative" true (Eda_obs.Clock.elapsed_s t0 >= 0.0)

let test_dropped_spans_zero_without_wrap () =
  fresh @@ fun () ->
  Trace.enable ();
  Trace.instant "one";
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "registered at zero" 0
    (Metrics.counter_total snap "trace.dropped_spans");
  Alcotest.(check bool)
    "series present even when zero" true
    (Metrics.find snap "trace.dropped_spans" <> None);
  Trace.disable ()

let test_disabled_is_noop () =
  fresh @@ fun () ->
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let r = Trace.span "ghost" (fun () -> 5) in
  Trace.instant "ghost2";
  Alcotest.(check int) "thunk still runs" 5 r;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  let r2, dt = Trace.timed_span "ghost3" (fun () -> 6) in
  Alcotest.(check int) "timed thunk runs" 6 r2;
  Alcotest.(check bool) "duration still measured" true (dt >= 0.0)

let test_chrome_json_parses () =
  fresh @@ fun () ->
  Trace.enable ();
  Trace.span_args "phase:route" [ ("nets", "12") ] (fun () ->
      Trace.instant ~args:[ ("iter", "1") ] "tick");
  let j = roundtrip (Trace.to_chrome_json ()) in
  (match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      Alcotest.(check int) "B + i + E" 3 (List.length evs);
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with
            | Some (Json.Str p) -> Some p
            | Some _ | None -> None)
          evs
      in
      Alcotest.(check (list string)) "phase letters" [ "B"; "i"; "E" ] phases
  | Some _ | None -> Alcotest.fail "traceEvents missing");
  Trace.disable ()

(* ----------------------------- Prof -------------------------------- *)

module Prof = Eda_obs.Prof

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ev name ph ts_us = { Trace.name; ph; ts_us; args = [] }

let test_prof_self_vs_total () =
  (* outer spans [0,100], inner [10,30]: inner's 20us are attributed to
     inner's self time and deducted from outer's *)
  let evs =
    [
      ev "outer" Trace.B 0.0;
      ev "inner" Trace.B 10.0;
      ev "inner" Trace.E 30.0;
      ev "outer" Trace.E 100.0;
    ]
  in
  match Prof.of_events evs with
  | [ o; i ] ->
      Alcotest.(check string) "largest self first" "outer" o.Prof.name;
      Alcotest.(check int) "outer calls" 1 o.Prof.calls;
      check_float "outer total" 100.0 o.Prof.total_us;
      check_float "outer self = total - child" 80.0 o.Prof.self_us;
      Alcotest.(check string) "inner second" "inner" i.Prof.name;
      check_float "inner total" 20.0 i.Prof.total_us;
      check_float "leaf self = total" 20.0 i.Prof.self_us
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_prof_percentiles () =
  (* 20 calls with durations 1..20us: p95 is the 19th order statistic *)
  let evs =
    List.concat
      (List.init 20 (fun i ->
           let i = i + 1 in
           let t = 100.0 *. float_of_int i in
           [ ev "s" Trace.B t; ev "s" Trace.E (t +. float_of_int i) ]))
  in
  match Prof.of_events evs with
  | [ r ] ->
      Alcotest.(check int) "calls" 20 r.Prof.calls;
      check_float "total = 1+..+20" 210.0 r.Prof.total_us;
      check_float "p95 exact" 19.0 r.Prof.p95_us;
      check_float "max" 20.0 r.Prof.max_us
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_prof_ignores_orphans_and_open () =
  (* an orphaned E (begin evicted), an unclosed B (span still running)
     and an instant must all contribute nothing *)
  let evs =
    [
      ev "orphan" Trace.E 5.0;
      ev "a" Trace.B 10.0;
      ev "a" Trace.E 20.0;
      ev "note" Trace.I 25.0;
      ev "open" Trace.B 30.0;
    ]
  in
  match Prof.of_events evs with
  | [ r ] ->
      Alcotest.(check string) "only the closed span" "a" r.Prof.name;
      check_float "its duration" 10.0 r.Prof.total_us
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_prof_top_share () =
  (* three sequential spans with self 80/15/5us *)
  let evs =
    [
      ev "a" Trace.B 0.0;
      ev "a" Trace.E 80.0;
      ev "b" Trace.B 100.0;
      ev "b" Trace.E 115.0;
      ev "c" Trace.B 200.0;
      ev "c" Trace.E 205.0;
    ]
  in
  let rows = Prof.of_events evs in
  check_float "top 1 covers 80%" 0.80 (Prof.top_share 1 rows);
  check_float "top 2 covers 95%" 0.95 (Prof.top_share 2 rows);
  check_float "top n covers all" 1.0 (Prof.top_share 10 rows);
  check_float "empty profile covers trivially" 1.0 (Prof.top_share 10 [])

let test_prof_json_and_metrics () =
  fresh @@ fun () ->
  let rows = Prof.of_events [ ev "x" Trace.B 0.0; ev "x" Trace.E 50.0 ] in
  let j = roundtrip (Prof.to_json rows) in
  (match Json.member "schema" j with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "gsino-profile-v1" s
  | Some _ | None -> Alcotest.fail "schema missing");
  (* whole-valued floats may round-trip through JSON as ints *)
  let num = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | Some (Json.Null | Json.Bool _ | Json.Str _ | Json.List _ | Json.Obj _)
    | None ->
        None
  in
  (match num (Json.member "total_us" j) with
  | Some t -> check_float "total_us" 50.0 t
  | None -> Alcotest.fail "total_us missing");
  (match Json.member "spans" j with
  | Some (Json.List [ span ]) -> (
      match num (Json.member "self_us" span) with
      | Some s -> check_float "span self_us" 50.0 s
      | None -> Alcotest.fail "self_us missing")
  | Some _ | None -> Alcotest.fail "spans shape");
  Prof.export_metrics rows;
  let snap = Metrics.snapshot () in
  let labels = [ ("span", "x") ] in
  (match Metrics.find ~labels snap "prof.self_us" with
  | Some (Metrics.Gauge v) -> check_float "prof.self_us gauge" 50.0 v
  | Some (Metrics.Counter _ | Metrics.Histogram _) | None ->
      Alcotest.fail "prof.self_us gauge missing");
  match Metrics.find ~labels snap "prof.calls" with
  | Some (Metrics.Gauge v) -> check_float "prof.calls gauge" 1.0 v
  | Some (Metrics.Counter _ | Metrics.Histogram _) | None ->
      Alcotest.fail "prof.calls gauge missing"

let test_prof_current_and_text () =
  fresh @@ fun () ->
  Alcotest.(check int) "empty when disabled" 0 (List.length (Prof.current ()));
  Trace.enable ();
  Trace.span "phase:demo" (fun () -> Trace.span "leaf" (fun () -> ()));
  let rows = Prof.current () in
  Alcotest.(check int) "both spans profiled" 2 (List.length rows);
  let txt = Prof.to_text rows in
  Alcotest.(check bool) "table names outer" true (contains ~sub:"phase:demo" txt);
  Alcotest.(check bool) "table names leaf" true (contains ~sub:"leaf" txt);
  Trace.disable ()

(* --------------------------- Progress ------------------------------- *)

module Progress = Eda_obs.Progress

let test_progress_heartbeat () =
  let lines = ref [] in
  Progress.enable ~interval_ms:1 ~emit:(fun l -> lines := l :: !lines) ();
  Alcotest.(check bool) "enabled" true (Progress.enabled ());
  Progress.set_deadline (fun () -> Some 1500);
  Progress.phase "route";
  (* a phase transition emits immediately, rate limit notwithstanding *)
  Alcotest.(check int) "phase line emitted" 1 (List.length !lines);
  let first = List.hd !lines in
  Alcotest.(check bool) "phase named" true
    (contains ~sub:"[gsino] phase=route" first);
  Alcotest.(check bool) "deadline column" true (contains ~sub:"left=1.5s" first);
  (* outwait the 1ms rate limit on the monotonic clock, then tick past
     the clock-read stride: the heartbeat must fire again with items *)
  let t0 = Eda_obs.Clock.now_s () in
  while Eda_obs.Clock.elapsed_s t0 < 0.002 do
    ()
  done;
  for i = 1 to 130 do
    Progress.tick ~items_total:10 ~items_done:i ()
  done;
  Alcotest.(check bool) "tick line emitted" true (List.length !lines >= 2);
  Alcotest.(check bool) "items rendered" true
    (contains ~sub:"/10 (" (List.hd !lines));
  Progress.disable ();
  Alcotest.(check bool) "disabled" false (Progress.enabled ())

let test_progress_single_writer () =
  let lines = ref [] in
  Progress.enable ~interval_ms:1 ~emit:(fun l -> lines := l :: !lines) ();
  (* ticks and phase changes from worker domains are ignored: the
     emitter belongs to the enabling (coordinator) domain *)
  let d =
    Domain.spawn (fun () ->
        Progress.phase "worker";
        Progress.tick ~items_done:1 ())
  in
  Domain.join d;
  Alcotest.(check int) "off-domain ignored" 0 (List.length !lines);
  Progress.disable ();
  Progress.phase "after";
  Progress.tick ~items_done:1 ();
  Alcotest.(check int) "disabled is a no-op" 0 (List.length !lines)

(* ---------------------------- Gcstat -------------------------------- *)

let test_gcstat_phase () =
  fresh @@ fun () ->
  let r =
    Eda_obs.Gcstat.phase "t" (fun () ->
        (* many small blocks: large arrays go straight to the major heap
           and would leave the minor-words delta at zero *)
        let acc = ref [] in
        for i = 1 to 1000 do
          acc := (i, i) :: !acc
        done;
        ignore (Sys.opaque_identity !acc);
        42)
  in
  Alcotest.(check int) "value returned" 42 r;
  let labels = [ ("phase", "t") ] in
  let snap = Metrics.snapshot () in
  (match Metrics.find ~labels snap "gc.minor_words" with
  | Some (Metrics.Gauge v) ->
      Alcotest.(check bool) "allocation attributed" true (v > 0.0)
  | Some (Metrics.Counter _ | Metrics.Histogram _) | None ->
      Alcotest.fail "gc.minor_words gauge missing");
  Alcotest.(check bool) "heap words recorded" true
    (Metrics.find ~labels snap "gc.heap_words" <> None);
  Alcotest.(check bool) "collections recorded" true
    (Metrics.find ~labels snap "gc.minor_collections" <> None);
  (* the delta is recorded even when the phase body raises *)
  (try Eda_obs.Gcstat.phase "exc" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "recorded on raise" true
    (Metrics.find ~labels:[ ("phase", "exc") ] (Metrics.snapshot ())
       "gc.minor_words"
    <> None)

(* ----------------------------- Log --------------------------------- *)

let test_log_levels () =
  let saved = Log.current_level () in
  Log.set_level (Log.Level Log.Warn);
  Alcotest.(check bool) "warn visible" true (Log.would_log Log.Warn);
  Alcotest.(check bool) "error visible" true (Log.would_log Log.Error);
  Alcotest.(check bool) "info hidden" false (Log.would_log Log.Info);
  Log.set_level Log.Quiet;
  Alcotest.(check bool) "quiet hides errors" false (Log.would_log Log.Error);
  Log.set_level saved

let test_log_level_of_string () =
  Alcotest.(check bool)
    "debug parses" true
    (Log.level_of_string "debug" = Ok (Log.Level Log.Debug));
  Alcotest.(check bool)
    "quiet parses" true
    (Log.level_of_string "quiet" = Ok Log.Quiet);
  Alcotest.(check bool)
    "junk rejected" true
    (match Log.level_of_string "loud" with Ok _ -> false | Error _ -> true)

let test_log_jsonl_sink () =
  let saved = Log.current_level () in
  let path = Filename.temp_file "gsino_log" ".jsonl" in
  let oc = open_out path in
  Log.set_sink (Log.Jsonl oc);
  Log.set_level (Log.Level Log.Info);
  Log.info ~fields:[ ("net", "3") ] "routed %d nets" 7;
  Log.debug "below threshold, discarded";
  close_out oc;
  Log.set_sink (Log.Human Format.err_formatter);
  Log.set_level saved;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match Json.of_string line with
  | Error msg -> Alcotest.failf "JSONL line unparseable: %s" msg
  | Ok j -> (
      (match Json.member "msg" j with
      | Some (Json.Str m) -> Alcotest.(check string) "msg" "routed 7 nets" m
      | Some _ | None -> Alcotest.fail "msg field missing");
      match Json.member "level" j with
      | Some (Json.Str l) -> Alcotest.(check string) "level" "info" l
      | Some _ | None -> Alcotest.fail "level field missing")

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite -> null" `Quick test_json_nonfinite_is_null;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "strict numbers" `Quick test_json_strict_numbers;
        Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pair;
        Alcotest.test_case "bad unicode escapes" `Quick
          test_json_bad_unicode_escape;
        Alcotest.test_case "member" `Quick test_json_member;
        Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
        Alcotest.test_case "typed readers" `Quick test_json_typed_readers;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
        Alcotest.test_case "gauge set/accum" `Quick test_gauge_set_accum;
        Alcotest.test_case "labels distinguish" `Quick test_labels_distinguish;
        Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
        Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
        Alcotest.test_case "snapshot find/merge" `Quick
          test_snapshot_find_and_merge;
        Alcotest.test_case "json export parses" `Quick test_metrics_json_parses;
        Alcotest.test_case "with_registry restores" `Quick
          test_with_registry_restores;
        Alcotest.test_case "zeroed copy" `Quick test_zeroed_copy;
        Alcotest.test_case "replay equals recording" `Quick
          test_replay_equals_recording;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "closes on raise" `Quick test_span_closes_on_raise;
        Alcotest.test_case "ring capacity" `Quick test_ring_capacity_and_dropped;
        Alcotest.test_case "dropped_spans counter" `Quick
          test_dropped_spans_counter;
        Alcotest.test_case "instants not dropped spans" `Quick
          test_instants_are_not_dropped_spans;
        Alcotest.test_case "paired drops orphans" `Quick
          test_paired_events_drop_orphans;
        Alcotest.test_case "paired keeps open spans" `Quick
          test_unclosed_span_kept_in_paired;
        Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
        Alcotest.test_case "dropped_spans zero" `Quick
          test_dropped_spans_zero_without_wrap;
        Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
        Alcotest.test_case "chrome json parses" `Quick test_chrome_json_parses;
      ] );
    ( "obs.prof",
      [
        Alcotest.test_case "self vs total" `Quick test_prof_self_vs_total;
        Alcotest.test_case "percentiles" `Quick test_prof_percentiles;
        Alcotest.test_case "orphans and open spans" `Quick
          test_prof_ignores_orphans_and_open;
        Alcotest.test_case "top_share" `Quick test_prof_top_share;
        Alcotest.test_case "json + metrics export" `Quick
          test_prof_json_and_metrics;
        Alcotest.test_case "current + text table" `Quick
          test_prof_current_and_text;
      ] );
    ( "obs.progress",
      [
        Alcotest.test_case "heartbeat" `Quick test_progress_heartbeat;
        Alcotest.test_case "single writer" `Quick test_progress_single_writer;
      ] );
    ( "obs.gcstat",
      [ Alcotest.test_case "phase deltas" `Quick test_gcstat_phase ] );
    ( "obs.log",
      [
        Alcotest.test_case "levels" `Quick test_log_levels;
        Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
        Alcotest.test_case "jsonl sink" `Quick test_log_jsonl_sink;
      ] );
  ]
