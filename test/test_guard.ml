(* Tests for Eda_guard — the typed failure taxonomy, cooperative
   deadlines, the deterministic fault-injection harness — and for the
   resilience wiring that rides on it: the netlist parse-error corpus,
   the Phase2 retry/fallback ladder, worker-crash recovery and the
   deadline-degraded end-to-end flow. *)
module Error = Eda_guard.Error
module Deadline = Eda_guard.Deadline
module Fault = Eda_guard.Fault
module Matrix = Eda_util.Matrix
module Point = Eda_geom.Point
module Io = Eda_netlist.Io
module Generator = Eda_netlist.Generator
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Dir = Eda_grid.Dir
module Route = Eda_grid.Route
module Diag = Eda_check.Diag
open Gsino

let p = Point.make

(* ----------------------------- taxonomy ----------------------------- *)

let samples =
  [
    ( Error.Parse { file = None; line = 3; token = "wat"; msg = "bad" },
      "parse-error", 20, 2 );
    (Error.Unreachable { net = 4; region = 9 }, "unreachable-grid", 17, 2);
    ( Error.Singular_matrix { n = 3; column = 1; pivot = 0.0 },
      "singular-matrix", 21, 5 );
    (Error.Worker_crash { site = "exec.worker"; msg = "boom" }, "worker-crash", 22, 5);
    ( Error.Nonfinite { site = "matrix.lu"; what = "unknown 0" },
      "nonfinite-value", 23, 5 );
    ( Error.Frame { what = "oversized"; detail = "70000000 > 1024" },
      "bad-frame", 30, 2 );
    (Error.Overload { reason = "queue-full"; depth = 16 }, "overloaded", 31, 6);
    (Error.Io { site = "write"; msg = "Broken pipe" }, "io-error", 32, 7);
    (Error.Usage { msg = "unknown circuit ibm99" }, "usage-error", 29, 2);
  ]

let test_error_mappings () =
  List.iter
    (fun (e, cls, gsl, code) ->
      Alcotest.(check string) (cls ^ " class") cls (Error.class_name e);
      Alcotest.(check int) (cls ^ " gsl") gsl (Error.gsl_code e);
      Alcotest.(check int) (cls ^ " exit") code (Error.exit_code e);
      Alcotest.(check bool)
        (cls ^ " message non-empty")
        true
        (String.length (Error.to_string e) > 0))
    samples;
  let gsls = List.map (fun (e, _, _, _) -> Error.gsl_code e) samples in
  Alcotest.(check int) "gsl codes distinct" (List.length samples)
    (List.length (List.sort_uniq compare gsls))

let test_error_of_exn () =
  (match Error.of_exn (Matrix.Singular { n = 2; column = 0; pivot = 1e-20 }) with
  | Some (Error.Singular_matrix { n; column; _ }) ->
      Alcotest.(check int) "n" 2 n;
      Alcotest.(check int) "column" 0 column
  | Some _ | None -> Alcotest.fail "Matrix.Singular not folded in");
  let e = Error.Unreachable { net = 3; region = 5 } in
  (match Error.of_exn (Error.Error e) with
  | Some e' -> Alcotest.(check bool) "identity" true (e = e')
  | None -> Alcotest.fail "Error.Error not folded in");
  (* classify: of_exn where a mapping exists, else a crash at the site *)
  Alcotest.(check bool) "classify keeps typed errors" true
    (Error.classify ~site:"cli" (Error.Error e) = e);
  (match Error.classify ~site:"serve.request" (Failure "x") with
  | Error.Worker_crash { site; _ } ->
      Alcotest.(check string) "crash names the entry point" "serve.request" site
  | other -> Alcotest.fail ("foreign exn classified as " ^ Error.class_name other));
  (* a vanished peer folds into the Io class (exit 7), whichever layer
     reports it: raw Unix writes or stdio channels *)
  (match Error.of_exn (Unix.Unix_error (Unix.EPIPE, "write", "")) with
  | Some (Error.Io { site; _ }) -> Alcotest.(check string) "epipe site" "write" site
  | Some _ | None -> Alcotest.fail "EPIPE not folded into Io");
  (match Error.of_exn (Unix.Unix_error (Unix.ECONNRESET, "recv", "")) with
  | Some (Error.Io _) -> ()
  | Some _ | None -> Alcotest.fail "ECONNRESET not folded into Io");
  (match Error.of_exn (Sys_error "out.txt: Broken pipe") with
  | Some (Error.Io _) -> ()
  | Some _ | None -> Alcotest.fail "stdio broken pipe not folded into Io");
  Alcotest.(check bool) "other unix errors unmapped" true
    (Error.of_exn (Unix.Unix_error (Unix.ENOENT, "open", "f")) = None);
  Alcotest.(check bool) "other sys errors unmapped" true
    (Error.of_exn (Sys_error "f: No such file or directory") = None);
  Alcotest.(check bool) "foreign exn unmapped" true
    (Error.of_exn (Failure "x") = None)

let test_error_printer () =
  let s =
    Printexc.to_string
      (Error.Error (Error.Parse { file = Some "f"; line = 7; token = "t"; msg = "m" }))
  in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "registered printer names the class" true
    (contains "parse-error")

(* ----------------------------- deadline ----------------------------- *)

let test_deadline_none () =
  Alcotest.(check bool) "never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check int) "no budget" 0 (Deadline.budget_ms Deadline.none);
  Deadline.mark Deadline.none ~phase:"route";
  Alcotest.(check (list string)) "mark is a no-op" [] (Deadline.hits Deadline.none);
  Alcotest.(check bool) "non-positive budget = none" false
    (Deadline.expired (Deadline.start ~budget_ms:0))

let test_deadline_expires_and_marks () =
  let d = Deadline.start ~budget_ms:1 in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "expired after budget" true (Deadline.expired d);
  Alcotest.(check bool) "check reports expiry" true (Deadline.check d ~phase:"route");
  Deadline.mark d ~phase:"route";
  Deadline.mark d ~phase:"sino";
  Alcotest.(check (list string)) "marks dedup, keep order" [ "route"; "sino" ]
    (Deadline.hits d);
  Alcotest.(check int) "budget recorded" 1 (Deadline.budget_ms d)

let test_deadline_not_expired () =
  let d = Deadline.start ~budget_ms:60_000 in
  Alcotest.(check bool) "fresh budget live" false (Deadline.expired d);
  Alcotest.(check bool) "check does not mark" false (Deadline.check d ~phase:"route");
  Alcotest.(check (list string)) "no hits" [] (Deadline.hits d)

let test_deadline_remaining_boundary () =
  (* a live budget reports a positive remainder bounded by the budget *)
  let d = Deadline.start ~budget_ms:60_000 in
  (match Deadline.remaining_ms d with
  | Some r ->
      Alcotest.(check bool) "remainder positive" true (r > 0);
      Alcotest.(check bool) "remainder bounded" true (r <= 60_000)
  | None -> Alcotest.fail "budgeted deadline reports no remainder");
  (* at and after expiry the remainder clamps to exactly 0, never
     negative — callers size buffers and sleeps from it *)
  let e = Deadline.start ~budget_ms:1 in
  Unix.sleepf 0.01;
  Alcotest.(check (option int)) "expired remainder clamps to 0" (Some 0)
    (Deadline.remaining_ms e);
  Unix.sleepf 0.01;
  Alcotest.(check (option int)) "stays 0 long after expiry" (Some 0)
    (Deadline.remaining_ms e);
  Alcotest.(check (option int)) "no deadline, no remainder" None
    (Deadline.remaining_ms Deadline.none)

let test_deadline_cancellable () =
  (* cancel-only: no time budget, never expires on its own *)
  let d = Deadline.cancellable () in
  Alcotest.(check bool) "fresh cancellable live" false (Deadline.expired d);
  Alcotest.(check bool) "not cancelled yet" false (Deadline.cancelled d);
  Alcotest.(check (option int)) "cancel-only has no remainder" None
    (Deadline.remaining_ms d);
  Deadline.cancel d;
  Alcotest.(check bool) "cancelled" true (Deadline.cancelled d);
  Alcotest.(check bool) "cancel expires" true (Deadline.expired d);
  Alcotest.(check (option int)) "cancelled remainder is 0" (Some 0)
    (Deadline.remaining_ms d);
  (* with a budget: cancellation wins even with time left on the clock *)
  let b = Deadline.cancellable ~budget_ms:60_000 () in
  Alcotest.(check bool) "budgeted cancellable live" false (Deadline.expired b);
  (match Deadline.remaining_ms b with
  | Some r -> Alcotest.(check bool) "budget remainder positive" true (r > 0)
  | None -> Alcotest.fail "budgeted cancellable reports no remainder");
  Deadline.cancel b;
  Alcotest.(check bool) "cancel overrides live budget" true (Deadline.expired b);
  Alcotest.(check (option int)) "overridden remainder is 0" (Some 0)
    (Deadline.remaining_ms b);
  (* cancelling the null deadline is a no-op, not a crash *)
  Deadline.cancel Deadline.none;
  Alcotest.(check bool) "none stays unexpired" false
    (Deadline.expired Deadline.none)

let test_deadline_concurrent_marks () =
  (* the serve daemon's request domains mark one deadline from several
     domains at once (flow phases + the drain timer); marks must stay
     deduplicated and ordered without tearing *)
  let d = Deadline.cancellable () in
  Deadline.cancel d;
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              Deadline.mark d ~phase:(Printf.sprintf "phase%d" i);
              ignore (Deadline.check d ~phase:(Printf.sprintf "phase%d" i))
            done))
  in
  List.iter Domain.join domains;
  let hits = Deadline.hits d in
  Alcotest.(check int) "one hit per phase" 4 (List.length hits);
  List.iteri
    (fun i _ ->
      let p = Printf.sprintf "phase%d" i in
      Alcotest.(check bool) (p ^ " recorded") true (List.mem p hits))
    hits

(* ------------------------------ faults ------------------------------ *)

(* Every fault test must leave the global table clean: the suite shares
   one process. *)
let with_faults specs f =
  Fault.set specs;
  Fun.protect ~finally:Fault.clear f

let test_fault_parse () =
  (match Fault.parse "phase2.solve=raise@0.5#42, matrix.lu=nan" with
  | Ok [ a; b ] ->
      Alcotest.(check string) "site a" "phase2.solve" a.Fault.site;
      Alcotest.(check bool) "mode a" true (a.Fault.mode = Fault.Raise);
      Alcotest.(check (float 1e-9)) "prob a" 0.5 a.Fault.prob;
      Alcotest.(check int) "seed a" 42 a.Fault.seed;
      Alcotest.(check string) "site b" "matrix.lu" b.Fault.site;
      Alcotest.(check bool) "mode b" true (b.Fault.mode = Fault.Corrupt);
      Alcotest.(check (float 1e-9)) "prob b defaults" 1.0 b.Fault.prob
  | Ok _ -> Alcotest.fail "wrong spec count"
  | Error m -> Alcotest.fail m);
  (match Fault.parse "io.load=delay:25" with
  | Ok [ s ] -> Alcotest.(check bool) "delay mode" true (s.Fault.mode = Fault.Delay 25)
  | Ok _ | Error _ -> Alcotest.fail "delay spec rejected");
  let rejected s =
    match Fault.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "no equals" true (rejected "phase2.solve");
  Alcotest.(check bool) "unknown mode" true (rejected "phase2.solve=explode");
  Alcotest.(check bool) "bad prob" true (rejected "phase2.solve=raise@1.5");
  Alcotest.(check bool) "bad seed" true (rejected "phase2.solve=raise#xyz");
  Alcotest.(check bool) "bad delay" true (rejected "io.load=delay:-3");
  (* a mistyped site would inject nothing: it is refused, naming the
     registered sites *)
  (match Fault.parse "matrix.luu=nan" with
  | Ok _ -> Alcotest.fail "unknown site accepted"
  | Error m ->
      let known = String.concat ", " Fault.registered in
      let n = String.length m and k = String.length known in
      let rec has i = i + k <= n && (String.sub m i k = known || has (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "%S names the sites" m) true (has 0));
  (* every int is a seed, min_int included *)
  match Fault.parse (Printf.sprintf "matrix.lu=nan#%d" min_int) with
  | Ok [ s ] -> Alcotest.(check int) "min_int seed" min_int s.Fault.seed
  | Ok _ | Error _ -> Alcotest.fail "min_int seed rejected"

let test_fault_point_raise () =
  with_faults [ { Fault.site = "t.site"; mode = Fault.Raise; prob = 1.0; seed = 1 } ]
  @@ fun () ->
  Alcotest.(check bool) "active" true (Fault.active ());
  Alcotest.(check (list string)) "sites" [ "t.site" ] (Fault.sites ());
  (match Fault.point "t.site" with
  | () -> Alcotest.fail "installed fault did not fire"
  | exception Error.Error (Error.Worker_crash { site; _ }) ->
      Alcotest.(check string) "names the site" "t.site" site);
  Fault.point "other.site" (* un-faulted sites stay inert *)

let test_fault_determinism () =
  let draw () =
    with_faults
      [ { Fault.site = "t.coin"; mode = Fault.Raise; prob = 0.5; seed = 99 } ]
    @@ fun () ->
    List.init 32 (fun _ ->
        match Fault.point "t.coin" with
        | () -> false
        | exception Error.Error (Error.Worker_crash _) -> true)
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list bool)) "same seed, same injection sequence" a b;
  Alcotest.(check bool) "some fire" true (List.mem true a);
  Alcotest.(check bool) "some pass" true (List.mem false a)

let test_fault_corrupt () =
  with_faults [ { Fault.site = "t.val"; mode = Fault.Corrupt; prob = 1.0; seed = 1 } ]
  @@ fun () ->
  Alcotest.(check bool) "corrupts to nan" true
    (Float.is_nan (Fault.corrupt "t.val" 3.14));
  Alcotest.(check (float 0.0)) "other site untouched" 2.0 (Fault.corrupt "t.other" 2.0);
  (* a nan fault never raises at a point site *)
  Fault.point "t.val"

let test_fault_clear () =
  Fault.set [ { Fault.site = "t.site"; mode = Fault.Raise; prob = 1.0; seed = 1 } ];
  Fault.clear ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Fault.point "t.site" (* must be inert again *)

(* ------------------------- parse-error corpus ------------------------ *)

let parse_err input =
  match Io.of_string input with
  | _ -> None
  | exception Error.Error ((Error.Parse _) as e) -> Some e

let check_parse name input ~line ~msg_has =
  match parse_err input with
  | None -> Alcotest.fail (name ^ ": malformed input accepted")
  | Some (Error.Parse { line = l; msg; _ }) ->
      Alcotest.(check int) (name ^ ": line") line l;
      let contains sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S in %S" name msg_has msg)
        true (contains msg_has msg)
  | Some _ -> Alcotest.fail (name ^ ": wrong error class")

let test_io_truncated_header () =
  check_parse "empty" "" ~line:1 ~msg_has:"empty input";
  check_parse "magic only" "gsino-netlist v1\n" ~line:1 ~msg_has:"missing name";
  check_parse "no grid" "gsino-netlist v1\nname x\n" ~line:2
    ~msg_has:"missing grid";
  check_parse "wrong magic" "name x\ngrid 2 2 10\n" ~line:1
    ~msg_has:"missing magic"

let test_io_pin_outside_grid () =
  check_parse "sink off grid"
    "gsino-netlist v1\nname x\ngrid 2 2 10\nnet 0 0 0 9 9\n" ~line:4
    ~msg_has:"outside 2x2 grid";
  match parse_err "gsino-netlist v1\nname x\ngrid 2 2 10\nnet 0 0 0 9 9\n" with
  | Some (Error.Parse { token; _ }) ->
      Alcotest.(check string) "token is the offending pin" "9 9" token
  | _ -> Alcotest.fail "no parse error"

let test_io_duplicate_net_ids () =
  check_parse "duplicate id"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 0 0 0 1 1\nnet 0 2 2 3 3\n"
    ~line:5 ~msg_has:"duplicate net id";
  check_parse "non-consecutive ids"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 0 0 0 1 1\nnet 2 2 2 3 3\n"
    ~line:5 ~msg_has:"non-consecutive net ids (expected 1)"

let test_io_absurd_counts () =
  check_parse "absurd grid"
    "gsino-netlist v1\nname x\ngrid 9999999 9999999 10\nnet 0 0 0 1 1\n"
    ~line:3 ~msg_has:"absurd grid dimensions";
  check_parse "absurd net id"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 99999999 0 0 1 1\n" ~line:4
    ~msg_has:"absurd net id";
  check_parse "negative net id"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet -1 0 0 1 1\n" ~line:4
    ~msg_has:"negative net id";
  check_parse "net without sinks"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 0 0 0\n" ~line:4
    ~msg_has:"net without sinks";
  check_parse "odd sink coordinates"
    "gsino-netlist v1\nname x\ngrid 4 4 10\nnet 0 0 0 1\n" ~line:4
    ~msg_has:"odd number of sink coordinates"

let test_io_load_carries_filename () =
  let path = Filename.temp_file "gsino_guard" ".netlist" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "gsino-netlist v1\nname x\ngrid 2 2 10\nnet 0 0 0 9 9\n";
      close_out oc;
      match Io.load path with
      | _ -> Alcotest.fail "malformed file accepted"
      | exception Error.Error (Error.Parse { file; line; _ }) ->
          Alcotest.(check (option string)) "file recorded" (Some path) file;
          Alcotest.(check int) "line recorded" 4 line)

(* ----------------------- Phase2 retry / fallback --------------------- *)

let tech = Tech.default

(* Two fully-sensitive nets sharing every region of a 1-row channel.
   Forcing infeasibility geometrically is impossible — spreading nets
   beyond the Keff window always reaches K = 0 — so the impossible
   bound is a negative Kth, which no non-negative coupling can meet. *)
let tight () =
  let grid = Grid.make ~w:4 ~h:1 ~hcap:8 ~vcap:8 in
  let e x = Grid.edge_id grid (p x 0) Dir.H in
  let routes =
    [|
      Route.of_edges grid ~net:0 [ e 0; e 1 ];
      Route.of_edges grid ~net:1 [ e 0; e 1 ];
    |]
  in
  (grid, routes, Sensitivity.make ~seed:1 ~rate:1.0)

let solve_tight ~kth () =
  let grid, routes, sens = tight () in
  Phase2.solve ~grid ~routes ~kth ~sensitivity:sens
    ~keff:tech.Tech.keff ~mode:Phase2.Min_area ~seed:3 ()

let test_phase2_degrade_fallback () =
  let retries () = Eda_obs.Metrics.(counter_value (counter "guard.retries")) in
  let retries0 = retries () in
  let p2 = solve_tight ~kth:(fun _ -> -1.0) () in
  let degraded = Phase2.degraded_panels p2 in
  Alcotest.(check bool) "panels degraded" true (degraded <> []);
  Alcotest.(check int) "full two-retry ladder per degraded panel"
    (2 * List.length degraded)
    (retries () - retries0);
  Alcotest.(check bool) "still infeasible" true (Phase2.infeasible_panels p2 <> []);
  List.iter
    (fun key ->
      Alcotest.(check bool) "feasible accessor agrees" false (Phase2.feasible p2 key))
    (Phase2.infeasible_panels p2);
  (* the conservative fallback interleaves a shield between every pair *)
  Alcotest.(check bool) "fallback inserted shields" true (Phase2.total_shields p2 > 0)

let test_phase2_feasible_not_degraded () =
  (* generous bounds: attempt 0 succeeds, nothing degrades, no retry *)
  let p2 = solve_tight ~kth:(fun _ -> 1e6) () in
  Alcotest.(check (list (pair int string)))
    "no degraded panels" []
    (List.map (fun (r, d) -> (r, Dir.to_string d)) (Phase2.degraded_panels p2));
  Alcotest.(check bool) "no infeasible panels" true
    (Phase2.infeasible_panels p2 = [])

let test_phase2_injected_crash_degrades () =
  with_faults
    [ { Fault.site = "phase2.solve"; mode = Fault.Raise; prob = 1.0; seed = 7 } ]
  @@ fun () ->
  let p2 = solve_tight ~kth:(fun _ -> 1e6) () in
  Alcotest.(check bool) "every panel fell back" true
    (Phase2.degraded_panels p2 <> [])

(* ------------------------- worker-crash drain ------------------------ *)

let test_exec_worker_injection () =
  with_faults
    [ { Fault.site = "exec.worker"; mode = Fault.Raise; prob = 1.0; seed = 5 } ]
  @@ fun () ->
  Eda_exec.with_pool ~jobs:2 @@ fun pool ->
  (match Eda_exec.parallel_map ~pool 64 (fun i -> i * i) with
  | _ -> Alcotest.fail "injected worker crash swallowed"
  | exception Error.Error (Error.Worker_crash { site; _ }) ->
      Alcotest.(check string) "typed crash re-raised" "exec.worker" site);
  (* the pool must stay usable after the drain *)
  Fault.clear ();
  let a = Eda_exec.parallel_map ~pool 8 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool alive afterwards"
    [| 1; 2; 3; 4; 5; 6; 7; 8 |] a

(* ------------------------ matrix / transient ------------------------- *)

let test_transient_nan_guard () =
  with_faults
    [ { Fault.site = "matrix.lu"; mode = Fault.Corrupt; prob = 1.0; seed = 3 } ]
  @@ fun () ->
  let module Mna = Eda_circuit.Mna in
  let module Waveform = Eda_circuit.Waveform in
  let c = Mna.create () in
  let a = Mna.node c and b = Mna.node c in
  ignore
    (Mna.vsource c a Mna.ground
       (Waveform.Ramp { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 1e-12 }));
  Mna.resistor c a b 1000.0;
  Mna.capacitor c b Mna.ground 1e-12;
  match Eda_circuit.Transient.run c ~dt:2e-12 ~t_end:1e-10 ~probes:[ b ] with
  | _ -> Alcotest.fail "corrupted solve accepted"
  | exception Error.Error (Error.Nonfinite { site; _ }) ->
      Alcotest.(check string) "guard names the kernel" "matrix.lu" site

(* --------------------------- flow deadline --------------------------- *)

let test_flow_deadline_degrades () =
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
      Generator.ibm01
  in
  let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
  let config = { Flow.Config.default with Flow.Config.deadline_ms = 1; seed = 3 } in
  let r = Flow.run config tech ~sensitivity:sens nl in
  Alcotest.(check bool) "a phase was truncated" true (r.Flow.deadline_hits <> []);
  Alcotest.(check bool) "result reports degraded" true (Flow.degraded r);
  let diags = Flow.check ~tech r in
  Alcotest.(check bool) "GSL0019 emitted" true
    (List.exists (fun d -> d.Diag.code = 19) diags);
  Alcotest.(check bool) "degradation is never an Error" false
    (List.exists
       (fun d -> d.Diag.severity = Diag.Error && (d.Diag.code = 18 || d.Diag.code = 19))
       diags);
  let s = Format.asprintf "%a" Flow.pp_summary r in
  Alcotest.(check bool) "summary flags the deadline" true
    (let sub = "DEADLINE[" in
     let n = String.length s and m = String.length sub in
     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
     go 0)

let test_flow_no_deadline_identical () =
  (* deadline_ms = 0 must be the pre-guard flow bit-for-bit: same routes,
     same shields, no hits, no degraded panels *)
  let nl =
    Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02 ~seed:7
      Generator.ibm01
  in
  let sens = Sensitivity.make ~seed:11 ~rate:0.30 in
  let run () =
    Flow.run { Flow.Config.default with Flow.Config.seed = 3 } tech
      ~sensitivity:sens nl
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "no deadline hits" [] a.Flow.deadline_hits;
  Alcotest.(check bool) "not degraded" false (Flow.degraded a);
  Alcotest.(check int) "shields repeat" a.Flow.shields b.Flow.shields;
  Alcotest.(check bool) "routes repeat" true
    (Array.for_all2
       (fun x y -> Route.edges x = Route.edges y)
       a.Flow.routes b.Flow.routes)

let suites =
  [
    ( "guard.error",
      [
        Alcotest.test_case "class/gsl/exit mappings" `Quick test_error_mappings;
        Alcotest.test_case "of_exn folding" `Quick test_error_of_exn;
        Alcotest.test_case "exception printer" `Quick test_error_printer;
      ] );
    ( "guard.deadline",
      [
        Alcotest.test_case "none" `Quick test_deadline_none;
        Alcotest.test_case "expires and marks" `Quick test_deadline_expires_and_marks;
        Alcotest.test_case "live budget" `Quick test_deadline_not_expired;
        Alcotest.test_case "remaining_ms boundary" `Quick
          test_deadline_remaining_boundary;
        Alcotest.test_case "cancellable semantics" `Quick
          test_deadline_cancellable;
        Alcotest.test_case "concurrent marks" `Quick
          test_deadline_concurrent_marks;
      ] );
    ( "guard.fault",
      [
        Alcotest.test_case "spec parsing" `Quick test_fault_parse;
        Alcotest.test_case "point raises typed" `Quick test_fault_point_raise;
        Alcotest.test_case "seeded determinism" `Quick test_fault_determinism;
        Alcotest.test_case "value corruption" `Quick test_fault_corrupt;
        Alcotest.test_case "clear disarms" `Quick test_fault_clear;
      ] );
    ( "guard.parse",
      [
        Alcotest.test_case "truncated header" `Quick test_io_truncated_header;
        Alcotest.test_case "pin outside grid" `Quick test_io_pin_outside_grid;
        Alcotest.test_case "duplicate net ids" `Quick test_io_duplicate_net_ids;
        Alcotest.test_case "absurd counts" `Quick test_io_absurd_counts;
        Alcotest.test_case "load carries filename" `Quick test_io_load_carries_filename;
      ] );
    ( "guard.phase2",
      [
        Alcotest.test_case "degrade installs fallback" `Quick
          test_phase2_degrade_fallback;
        Alcotest.test_case "feasible panels untouched" `Quick
          test_phase2_feasible_not_degraded;
        Alcotest.test_case "injected crash degrades" `Quick
          test_phase2_injected_crash_degrades;
      ] );
    ( "guard.recovery",
      [
        Alcotest.test_case "exec.worker injection" `Quick test_exec_worker_injection;
        Alcotest.test_case "transient nan guard" `Quick test_transient_nan_guard;
      ] );
    ( "guard.flow",
      [
        Alcotest.test_case "deadline degrades gracefully" `Slow
          test_flow_deadline_degrades;
        Alcotest.test_case "no deadline = identical" `Slow
          test_flow_no_deadline_identical;
      ] );
  ]
