(* The traced replay (`perf.exe --replay`): one op of a workload re-run
   in a fresh process through the program's own entry points, in the
   shipped binaries' order — gsino_run run's (Flow.prepare, Flow.run for
   ID+NO, iSINO and GSINO, Flow.check) for a CLI op, gsino_serve's
   (decode, Flow.prepare, Flow.run on the shared panel cache, Flow.check,
   encode) for a daemon request.

   The op runs three times: untraced, traced, untraced.  Per-layer times
   come from the traced run's Eda_obs.Trace spans: the program's own
   (flow:prepare, phase:route, phase:sino, phase:refine) plus bench spans
   around the calls made outside Flow.run (models, parse, lint, codecs).
   Budgets and the noise scan run inside Flow.run without a span of
   their own, so two probes re-run Budget and Noise.violations on the
   traced op's inputs, and must reproduce its budget and violations.
   Counts are deltas of the program's metrics registry over the traced
   run.  The untraced runs give the tracing overhead, and all three runs
   must agree on every flow's shields, wire length and violations. *)
module Flow = Gsino.Flow
module Tech = Gsino.Tech
module Budget = Gsino.Budget
module Noise = Gsino.Noise
module Refine = Gsino.Refine
module Netlist = Eda_netlist.Netlist
module Io = Eda_netlist.Io
module Cache = Eda_sino.Cache
module Clock = Eda_obs.Clock
module Trace = Eda_obs.Trace
module Metrics = Eda_obs.Metrics
module Json = Eda_obs.Json
module Protocol = Eda_serve.Protocol
module Diag = Eda_check.Diag

let tech = Tech.default

(* ---------------- spans ---------------- *)

(* Run [f] with tracing on; its events come back on the absolute
   monotonic clock, so the stretches of one replay, and the replays of
   one run, share a timeline. *)
let tracing f =
  let origin_us = Int64.to_float (Clock.now_ns ()) /. 1e3 in
  Trace.enable ();
  let v = f () in
  let events = Trace.events () and dropped = Trace.dropped () in
  Trace.disable ();
  if dropped > 0 then failwith "the trace ring overflowed";
  (v, List.map (fun e -> { e with Trace.ts_us = e.Trace.ts_us +. origin_us }) events)

(* (name, start µs, end µs) of every closed span. *)
let spans events =
  let rec go open_ acc = function
    | [] -> acc
    | { Trace.ph = Trace.B; name; ts_us; _ } :: rest -> go ((name, ts_us) :: open_) acc rest
    | { Trace.ph = Trace.E; ts_us; _ } :: rest -> (
        match open_ with
        | (name, t0) :: o -> go o ((name, t0, ts_us) :: acc) rest
        | [] -> go [] acc rest)
    | { Trace.ph = Trace.I; _ } :: rest -> go open_ acc rest
  in
  go [] [] events

let total spans name =
  List.fold_left
    (fun acc (n, t0, t1) -> if n = name then acc +. ((t1 -. t0) /. 1e6) else acc)
    0.0 spans

(* Chrome trace events, one track per op. *)
let chrome ~op events =
  List.map
    (fun e ->
      Json.Obj
        [
          ("name", Json.Str e.Trace.name);
          ("ph", Json.Str (match e.Trace.ph with Trace.B -> "B" | Trace.E -> "E" | Trace.I -> "i"));
          ("ts", Json.Float e.Trace.ts_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int op);
        ])
    events

(* ---------------- serve codecs ---------------- *)

(* The route request and response, framed as gsino_serve's client and
   daemon frame them. *)
let encode_request w ~seed text =
  Trace.span "serve.codec" (fun () ->
      Json.to_string
        (Protocol.request_to_json
           (Protocol.Route { netlist = text; options = Workload.route_options w ~seed [] })))

let decode_request s =
  Trace.span "serve.codec" (fun () ->
      match Protocol.request_of_string s with
      | Ok (Protocol.Route { netlist; options }) -> (netlist, options)
      | Ok (Protocol.Ping | Protocol.Stats) | Error _ ->
          failwith "route request did not survive its codec")

let encode_response (r : Flow.result) diags =
  Trace.span "serve.codec" (fun () ->
      Json.to_string
        (Protocol.response_to_json
           (Protocol.Result
              {
                status = (if Flow.degraded r then "degraded" else "ok");
                summary = Format.asprintf "%a" Flow.pp_summary r;
                findings = List.map Diag.to_line diags;
                artifacts = [];
              })))

let decode_response s =
  Trace.span "serve.codec" (fun () ->
      match Protocol.response_of_string s with
      | Ok (Protocol.Result _) -> ()
      | Ok (Protocol.Pong | Protocol.Stats_reply _ | Protocol.Err _) | Error _ ->
          failwith "route response did not survive its codec")

(* ---------------- ops ---------------- *)

type op = {
  flows : Flow.result list;
  diags : Diag.t list list;
  request_bytes : int;
  response_bytes : int;
}

(* gsino_run run after its models. *)
let cli_op (w : Workload.t) ~seed text =
  let netlist = Trace.span "netlist.parse" (fun () -> Io.of_string text) in
  let config = Workload.config w ~seed in
  let grid, base = Flow.prepare ~config:(config Flow.Id_no) tech netlist in
  let sensitivity = Workload.sensitivity w ~seed in
  let flows =
    [
      Flow.run ~grid ~base (config Flow.Id_no) tech ~sensitivity netlist;
      Flow.run ~grid ~base (config Flow.Isino) tech ~sensitivity netlist;
      Flow.run ~grid (config Flow.Gsino) tech ~sensitivity netlist;
    ]
  in
  let diags = List.map (fun r -> Trace.span "check.run" (fun () -> Flow.check ~tech r)) flows in
  { flows; diags; request_bytes = 0; response_bytes = 0 }

(* One route request as gsino_serve serves it (Server.route_result),
   from the client's encode to its decode. *)
let serve_op w ~pool ~cache ~seed text =
  let request = encode_request w ~seed text in
  let netlist_text, options = decode_request request in
  let seed = options.Protocol.seed in
  let netlist = Trace.span "netlist.parse" (fun () -> Io.of_string netlist_text) in
  let config = Workload.config w ~seed in
  let grid, base = Flow.prepare ~config:(config Flow.Gsino) ~pool tech netlist in
  let r =
    Flow.run ~grid ~base ~pool ~cache (config Flow.Gsino) tech
      ~sensitivity:(Workload.sensitivity w ~seed) netlist
  in
  let diags = Trace.span "check.run" (fun () -> Flow.check ~tech r) in
  let response = encode_response r diags in
  decode_response response;
  {
    flows = [ r ];
    diags = [ diags ];
    request_bytes = String.length request;
    response_bytes = String.length response;
  }

(* ---------------- checks ---------------- *)

(* The correctness gate the end-to-end ops pass: iSINO and GSINO end
   with zero violations, no flow has an Error-severity finding, and a
   served result is not degraded. *)
let gate (w : Workload.t) op =
  let bad (r : Flow.result) diags =
    (r.Flow.kind <> Flow.Id_no && r.violations <> [])
    || List.exists (fun d -> d.Diag.severity = Diag.Error) diags
    || (w.mode = Workload.Serve && Flow.degraded r)
  in
  match List.find_opt (fun (r, d) -> bad r d) (List.combine op.flows op.diags) with
  | None -> None
  | Some (r, _) -> Some (Flow.kind_name r.Flow.kind ^ " fails the correctness gate")

(* What the runs of an op must agree on: every flow's shields, total
   wire length and violations.  The untraced runs keep only this, so
   they leave no more live heap behind than the traced run does. *)
let outcome op =
  List.map
    (fun (r : Flow.result) -> (r.Flow.kind, r.shields, r.total_wl_um, r.violations))
    op.flows

let describe (kind, shields, wl_um, violations) =
  Printf.sprintf "%s: %d shields, %.17g um, %d violations" (Flow.kind_name kind) shields wl_um
    (List.length violations)

let agree traced untraced =
  match List.find_opt (fun (x, y) -> x <> y) (List.combine traced untraced) with
  | None -> None
  | Some (x, y) -> Some (Printf.sprintf "traced %s, untraced %s" (describe x) (describe y))

(* Re-run the budgets and the noise scan of every flow on its own
   inputs, each in a span, and check they reproduce what Flow.run kept. *)
let probe (w : Workload.t) ~pool op =
  let lsk = Tech.lsk_model tech and noise_v = tech.Tech.noise_bound_v in
  List.find_map
    (fun (r : Flow.result) ->
      let gcell_um = r.Flow.netlist.Netlist.gcell_um in
      let budget =
        Trace.span "budget.build" (fun () ->
            let uniform = Budget.uniform ~lsk ~noise_v ~gcell_um r.netlist in
            match w.budgeting with
            | Flow.Uniform -> uniform
            | Flow.Route_aware ->
                Budget.route_aware ~lsk ~noise_v ~gcell_um ~grid:r.grid ~routes:r.routes r.netlist)
      in
      let violations =
        Trace.span "noise.violations" (fun () ->
            Noise.violations ~pool ~grid:r.grid ~gcell_um ~phase2:r.phase2 ~lsk_model:lsk
              ~netlist:r.netlist ~routes:r.routes ~bound_v:noise_v ())
      in
      if budget <> r.budget || violations <> r.violations then
        Some (Flow.kind_name r.kind ^ ": a probe did not reproduce the flow's budget or violations")
      else None)
    op.flows

(* ---------------- layer metrics ---------------- *)

(* The spans that together cover an op, apart from the budgets and the
   noise scan, which the probes time. *)
let covering =
  [
    "netlist.parse"; "flow:prepare"; "phase:route"; "phase:sino"; "phase:refine"; "check.run";
    "serve.codec";
  ]

let layer_metrics ~spans ~op_span ~probes ~nets ~before ~after op =
  let d name =
    float_of_int (Metrics.counter_total after name - Metrics.counter_total before name)
  in
  let minor phase =
    let words snap =
      match Metrics.find ~labels:[ ("phase", phase) ] snap "gc.minor_words" with
      | Some (Metrics.Gauge g) -> g
      | Some (Metrics.Counter _ | Metrics.Histogram _) | None -> 0.0
    in
    words after -. words before
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let sum f =
    float_of_int
      (List.fold_left
         (fun acc (r : Flow.result) -> match r.refine_stats with Some s -> acc + f s | None -> acc)
         0 op.flows)
  in
  let p1 = sum (fun s -> s.Refine.pass1_resolves) in
  let p2 = sum (fun s -> s.Refine.pass2_resolves) in
  let t = total spans in
  let route_s = t "phase:route" in
  let hits = d "sino.cache_hits" in
  let _, op_t0, op_t1 = op_span in
  let op_s = (op_t1 -. op_t0) /. 1e6 in
  let covered =
    List.fold_left
      (fun acc (n, t0, t1) ->
        if List.mem n covering && t0 >= op_t0 && t1 <= op_t1 then acc +. ((t1 -. t0) /. 1e6)
        else acc)
      probes spans
  in
  [
    ("lsk.table_build_s", t "lsk.table_build");
    ("estimate.fit_s", t "estimate.fit");
    ("flow.prepare_s", t "flow:prepare");
    ("router.route_s", route_s);
    ("router.ms_per_net", 1000.0 *. route_s /. float_of_int nets);
    ( "id_router.reweights_per_deletion",
      ratio (d "id_router.reweights") (d "id_router.edge_deletions") );
    ("nc_router.reroutes", d "nc_router.reroutes");
    ("budget.build_s", t "budget.build");
    ("phase2.solve_s", t "phase:sino");
    ("phase2.panels", d "phase2.panels");
    ("phase2.minor_words_per_panel", ratio (minor "sino") (d "phase2.panels"));
    ("sino.cache_hit_rate", ratio hits (hits +. d "sino.cache_misses"));
    ("refine.run_s", t "phase:refine");
    ("refine.pass1_resolves", p1);
    ("refine.pass2_resolves", p2);
    ("refine.pass2_accept_ratio", ratio (sum (fun s -> s.Refine.pass2_shields_removed)) p2);
    ("refine.minor_words_per_resolve", ratio (minor "refine") (p1 +. p2));
    ("noise.violations_s", t "noise.violations");
    ("check.run_s", t "check.run");
    ("exec.sections", d "exec.sections");
    ("netlist.parse_ms", 1000.0 *. t "netlist.parse");
    ("serve.codec_ms", 1000.0 *. t "serve.codec");
    ("serve.request_kb", float_of_int op.request_bytes /. 1024.0);
    ("serve.response_kb", float_of_int op.response_bytes /. 1024.0);
    ("bench.unattributed_frac", 1.0 -. (covered /. op_s));
  ]

(* ---------------- main ---------------- *)

let timed f =
  let t0 = Clock.now_s () in
  let v = f () in
  (v, Clock.now_s () -. t0)

(* Replay op [variant] of a run of [w] with seed [seed] — CLI op
   [variant], or request [variant] on the cache the daemon's earlier
   requests left — and write its verdict, layer metrics and
   spans to [out] as JSON.  [dir] holds the serve replay's cache copy. *)
let main (w : Workload.t) ~seed ~variant ~netlist ~dir ~out =
  Eda_obs.Log.set_level Eda_obs.Log.Quiet;
  let text = In_channel.with_open_bin netlist In_channel.input_all in
  let (), model_events =
    tracing (fun () ->
        ignore (Trace.span "lsk.table_build" (fun () -> Tech.lsk_model tech));
        ignore (Trace.span "estimate.fit" (fun () -> Flow.analyze_config tech)))
  in
  Eda_exec.with_pool ~jobs:w.jobs @@ fun pool ->
  (* [fresh ()] sets up one run of the op and returns it *)
  let fresh =
    match w.mode with
    | Workload.Cli ->
        let seed = Workload.cli_seed w ~seed variant in
        fun () () -> cli_op w ~seed text
    | Workload.Serve ->
        (* the daemon's state before request [variant]: models forced,
           journal on, the earlier requests in the shared cache; each
           run of the op starts from a copy of that cache *)
        Eda_obs.Journal.enable ();
        let cache = Cache.create () in
        for k = 0 to variant - 1 do
          ignore (serve_op w ~pool ~cache ~seed:(Workload.op_seed w ~seed k) text)
        done;
        Cache.save cache dir;
        let seed = Workload.op_seed w ~seed variant in
        fun () ->
          let cache = Cache.load dir in
          Eda_obs.Journal.clear ();
          fun () -> serve_op w ~pool ~cache ~seed text
  in
  let a1, a1_s = timed (fresh ()) in
  let a1 = outcome a1 in
  let run = fresh () in
  let before = Metrics.snapshot () in
  let (b, b_s), op_events = tracing (fun () -> timed (fun () -> Trace.span "op" run)) in
  let after = Metrics.snapshot () in
  let (probe_error, b), probe_events =
    tracing (fun () ->
        let error = probe w ~pool b in
        match w.mode with
        | Workload.Serve -> (error, b)
        | Workload.Cli ->
            (* a CLI op frames nothing: frame the route request for its
               input and its GSINO result as the daemon would *)
            let request = encode_request w ~seed:(Workload.cli_seed w ~seed variant) text in
            ignore (decode_request request);
            let response = encode_response (List.nth b.flows 2) (List.nth b.diags 2) in
            decode_response response;
            ( error,
              {
                b with
                request_bytes = String.length request;
                response_bytes = String.length response;
              } ))
  in
  let op_spans = spans op_events and probe_spans = spans probe_events in
  let layers =
    layer_metrics
      ~spans:(spans model_events @ op_spans @ probe_spans)
      ~op_span:(List.find (fun (n, _, _) -> n = "op") op_spans)
      ~probes:(total probe_spans "budget.build" +. total probe_spans "noise.violations")
      ~nets:(Netlist.num_nets (List.hd b.flows).Flow.netlist)
      ~before ~after b
  in
  let gate_error = gate w b and traced = outcome b in
  let a2, a2_s = timed (fresh ()) in
  let error =
    List.find_map Fun.id [ gate_error; probe_error; agree traced a1; agree traced (outcome a2) ]
  in
  let layers =
    layers @ [ ("bench.trace_overhead_frac", (b_s /. ((a1_s +. a2_s) /. 2.0)) -. 1.0) ]
  in
  Json.write_file out
    (Json.Obj
       [
         ("error", match error with None -> Json.Null | Some m -> Json.Str m);
         ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
         ("trace_events", Json.List (chrome ~op:variant (model_events @ op_events @ probe_events)));
       ])
