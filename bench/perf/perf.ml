(* perf — the repository benchmark.

     perf.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
     perf.exe --quick

   --trace 0 measures the end-to-end metrics from the shipped binaries:
   fresh gsino_run processes, or a gsino_serve daemon driven by two
   closed-loop clients.  Times are the processes' CPU seconds (user +
   system, from wait4), which time spent waiting for a processor does
   not move, rescaled by calibration samples taken between the ops
   (Calib) so that the host's other tenants do not move them either;
   wall and raw CPU times are logged to stderr for orientation.
   --trace 1 measures the per-layer metrics from
   traced in-process replays of the same ops (Replay), each in a fresh
   child process.  Either way every op's output is checked, every metric
   is printed as "name value unit", and the last line of stdout is the
   JSON result object.  --quick runs the workloads at toy size in both
   modes and checks each result object against BENCHMARK.json.  See
   README.md in this directory. *)
module Clock = Eda_obs.Clock
module Json = Eda_obs.Json
module Metrics = Eda_obs.Metrics
module Protocol = Eda_serve.Protocol
module Client = Eda_serve.Client

let end_to_end =
  [
    ("cpu_s_per_op", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("gsino_shields", "count");
    ("isino_shields", "count");
    ("gsino_wire_mm", "mm");
    ("passed_frac", "fraction");
  ]

let per_layer =
  [
    ("lsk.table_build_s", "s");
    ("estimate.fit_s", "s");
    ("flow.prepare_s", "s");
    ("router.route_s", "s");
    ("router.ms_per_net", "ms");
    ("id_router.reweights_per_deletion", "ratio");
    ("nc_router.reroutes", "count");
    ("budget.build_s", "s");
    ("phase2.solve_s", "s");
    ("phase2.panels", "count");
    ("phase2.minor_words_per_panel", "words");
    ("sino.cache_hit_rate", "fraction");
    ("refine.run_s", "s");
    ("refine.pass1_resolves", "count");
    ("refine.pass2_resolves", "count");
    ("refine.pass2_accept_ratio", "fraction");
    ("refine.minor_words_per_resolve", "words");
    ("noise.violations_s", "s");
    ("check.run_s", "s");
    ("exec.cpu_per_wall", "ratio");
    ("exec.sections", "count");
    ("netlist.parse_ms", "ms");
    ("serve.codec_ms", "ms");
    ("serve.ping_rtt_ms", "ms");
    ("serve.request_kb", "KiB");
    ("serve.response_kb", "KiB");
    ("bench.unattributed_frac", "fraction");
    ("bench.trace_overhead_frac", "fraction");
  ]

let fail fmt = Printf.ksprintf failwith fmt
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------------- statistics ---------------- *)

(* Linear-interpolated quantile of a non-empty sample. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---------------- op checks ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* A flow summary ends in its phase timings, " (route 0.1s, sino 0.0s,
   refine 0.1s)"; everything else in it is deterministic. *)
let strip_timings line =
  let n = String.length line in
  let rec find i =
    if i + 8 > n then None else if String.sub line i 8 = " (route " then Some i else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i -> (
      match String.index_from_opt line i ')' with
      | Some j -> String.sub line 0 i ^ String.sub line (j + 1) (n - j - 1)
      | None -> line)

let is_error_finding line =
  match String.split_on_char ' ' (String.trim line) with
  | code :: "E" :: _ -> String.length code = 7 && String.sub code 0 3 = "GSL"
  | _ -> false

(* "iSINO on ibm01: 0 violations (0.00%), ..." *)
let clean_summary kind l =
  String.starts_with ~prefix:(kind ^ " on ") l && contains l ": 0 violations"

(* The lines of a gsino_run op that must repeat exactly for equal
   inputs (everything above the metrics table, timings stripped), after
   checking the gate: zero iSINO/GSINO violations, no lint error. *)
let check_cli_stdout text =
  let rec upto = function
    | [] -> []
    | l :: _ when contains l "Per-phase metrics" -> []
    | l :: rest -> l :: upto rest
  in
  let lines = upto (String.split_on_char '\n' text) in
  let lint_ok l = (not (contains l " lint: ")) || contains l " lint: 0 errors" in
  if not (List.exists (clean_summary "iSINO") lines && List.exists (clean_summary "GSINO") lines)
  then Error "iSINO/GSINO summary missing or reports violations"
  else if not (List.for_all lint_ok lines) then Error "a flow's lint reports errors"
  else if List.exists is_error_finding lines then Error "an Error-severity lint line"
  else Ok (List.map strip_timings lines)

(* Per-seed reference output: the first op of a seed sets it, every
   later op with that seed must match it. *)
let consistent table ~seed lines =
  match Hashtbl.find_opt table seed with
  | None ->
      Hashtbl.replace table seed lines;
      true
  | Some ref_lines -> ref_lines = lines

let quality_of snap ~kind name =
  match Metrics.find ~labels:[ ("kind", kind) ] snap name with
  | Some (Metrics.Counter n) -> float_of_int n
  | Some (Metrics.Gauge g) -> g
  | Some (Metrics.Histogram _) | None -> fail "metrics export lacks %s{kind=%s}" name kind

(* ---------------- one run ---------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let attempt tally what = function
  | Ok v ->
      tally.attempted <- tally.attempted + 1;
      Some v
  | Error msg ->
      tally.attempted <- tally.attempted + 1;
      tally.failed <- tally.failed + 1;
      log "perf: %s failed: %s" what msg;
      None

let read_file path = In_channel.with_open_bin path In_channel.input_all

type cli_op = {
  exit : Proc.exit_info;
  scale : float;  (** Calib's factor for its CPU time *)
  snap : Metrics.snapshot;
}

(* One gsino_run process on the workload's netlist. *)
let run_cli_op (w : Workload.t) ~dir ~netlist ~lines ~seed =
  let file name = Filename.concat dir name in
  let exit, scale =
    Proc.run_sampled ~stdout:(file "op.out") ~stderr:(file "op.err") (Proc.run_exe ())
      (Workload.run_args w ~netlist ~seed ~metrics:(file "op.json"))
  in
  if exit.code <> 0 then
    Error (Printf.sprintf "gsino_run exited %d: %s" exit.code (read_file (file "op.err")))
  else
    match (check_cli_stdout (read_file (file "op.out")), Metrics.read_json (file "op.json")) with
    | Error m, _ | _, Error m -> Error m
    | Ok out, Ok snap ->
        if consistent lines ~seed out then Ok { exit; scale; snap }
        else Error (Printf.sprintf "seed %d printed different summary lines than before" seed)

let route_request (w : Workload.t) d ~text ~seed ?kind artifacts =
  try
    Ok
      (Client.request ~timeout_s:120.0 d.Proc.socket
         (Protocol.Route
            { netlist = text; options = Workload.route_options w ~seed ?kind artifacts }))
  with exn -> Error (Printexc.to_string exn)

(* A route response passes when it is "ok", reports 0 violations and
   has no Error-severity lint finding.  It comes back with its summary,
   timings stripped, and its artifacts. *)
let check_route ~kind = function
  | Error _ as e -> e
  | Ok (Protocol.Result { status = "ok"; summary; findings; artifacts }) ->
      if List.exists is_error_finding findings then Error "an Error-severity lint finding"
      else if not (clean_summary kind summary) then Error ("not a clean result: " ^ summary)
      else Ok (strip_timings summary, artifacts)
  | Ok (Protocol.Result { status; summary; _ }) ->
      Error (Printf.sprintf "status %s: %s" status summary)
  | Ok (Protocol.Err { message; _ }) -> Error message
  | Ok (Protocol.Pong | Protocol.Stats_reply _) -> Error "unexpected response kind"

let artifact_metrics artifacts =
  match List.assoc_opt "metrics" artifacts with
  | None -> Error "response lacks the metrics artifact"
  | Some s -> Result.bind (Json.of_string s) Metrics.of_json

(* [closed_loop ~stop ~tick f] — two clients, each sending its next
   request only after the previous one returned; [f i] serves the i-th
   request sent, [stop i] ends a client's loop before sending it.  The
   calling thread runs [tick] every 10 ms until both clients are done. *)
let closed_loop ~stop ~tick f =
  let mu = Mutex.create () in
  let next = ref 0 and done_ = ref [] in
  let rec client () =
    let i =
      Mutex.protect mu (fun () ->
          let i = !next in
          if stop i then None
          else begin
            incr next;
            Some i
          end)
    in
    match i with
    | None -> ()
    | Some i ->
        let t0 = Clock.now_s () in
        let r = f i in
        let lat = Clock.now_s () -. t0 in
        Mutex.protect mu (fun () -> done_ := (i, lat, r) :: !done_);
        client ()
  in
  let finished = Atomic.make 0 in
  let threads =
    List.init 2 (fun _ ->
        Thread.create (fun () -> Fun.protect ~finally:(fun () -> Atomic.incr finished) client) ())
  in
  while Atomic.get finished < 2 do
    tick ();
    Thread.delay 0.01
  done;
  List.iter Thread.join threads;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !done_

(* Wall times wait for a processor whenever the host is busy, and raw
   CPU times move with what its other tenants run (Calib), so neither is
   a metric; both are logged for orientation. *)
let log_raw what ~wall ~cpu =
  log "perf: per %s: median wall %.4g s over %d, median raw CPU %.4g s (not metrics)" what
    (median wall) (List.length wall) (median cpu)

type ctx = {
  w : Workload.t;
  dir : string;
  netlist : string;  (** the generated netlist file *)
  text : string;
  seed : int;
  seconds : float;
  tally : tally;
  lines : (int, string list) Hashtbl.t;
}

(* ---------------- end to end ---------------- *)

let quality_metrics ~gsino ~isino =
  [
    ("gsino_shields", quality_of gsino ~kind:"GSINO" "flow.shields");
    ("isino_shields", quality_of isino ~kind:"iSINO" "flow.shields");
    ("gsino_wire_mm", quality_of gsino ~kind:"GSINO" "flow.total_wl_um" /. 1000.0);
  ]

(* The window's first op runs the pinned reference seed, whose metrics
   export gives the quality metrics; the rest rotate over the run's
   variant seeds.  There is no separate warm-up: `gsino_run gen` and the
   set-up daemons have already paged the binaries in. *)
let cli_e2e c ~setup =
  let t_start = Clock.now_s () in
  let rec window i acc =
    if i > 0 && Clock.now_s () -. t_start >= c.seconds then List.rev acc
    else
      let seed =
        if i = 0 then c.w.Workload.reference else Workload.cli_seed c.w ~seed:c.seed (i - 1)
      in
      let r =
        attempt c.tally
          (Printf.sprintf "op %d (seed %d)" i seed)
          (run_cli_op c.w ~dir:c.dir ~netlist:c.netlist ~lines:c.lines ~seed)
      in
      window (i + 1) (r :: acc)
  in
  let ops = window 0 [] in
  let quality =
    match ops with Some r :: _ -> quality_metrics ~gsino:r.snap ~isino:r.snap | _ -> []
  in
  let oks = List.filter_map Fun.id ops in
  log_raw "op"
    ~wall:(List.map (fun r -> r.exit.Proc.wall_s) oks)
    ~cpu:(List.map (fun r -> r.exit.Proc.cpu_s) oks);
  [
    ( "cpu_s_per_op",
      Calib.faster_half_mean (List.map (fun r -> r.exit.Proc.cpu_s *. r.scale) oks) );
    ("setup_s", setup);
    ( "peak_rss_mb",
      median (List.map (fun r -> float_of_int r.exit.Proc.maxrss_kb /. 1024.0) oks) );
  ]
  @ quality

let stats_ok d =
  match Client.request ~timeout_s:10.0 d.Proc.socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      let rejected = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Protocol.rejected in
      if s.Protocol.errors = 0 && rejected = 0 then Ok ()
      else Error (Printf.sprintf "daemon stats: %d errors, %d rejected" s.Protocol.errors rejected)
  | Protocol.Pong | Protocol.Result _ | Protocol.Err _ -> Error "unexpected reply to stats"

(* Daemon request [k] of the run (see Workload.op_seed). *)
let serve_request c d k =
  check_route ~kind:"GSINO"
    (route_request c.w d ~text:c.text ~seed:(Workload.op_seed c.w ~seed:c.seed k) [])

(* Every window request carries a seed the daemon has not served.  The
   window is cut into segments of about [segment_s], each a closed loop
   of its own that ends when both clients are done, so the daemon's CPU
   clock read before and after a segment covers exactly its requests;
   Calib samples the daemon throughout.  The quality reference comes
   after the window, as a GSINO and an iSINO route asking for the
   metrics artifact; the GSINO one is then sent again, and the exact
   repeat, answered from the warm cache, must be byte-equal. *)
let segment_s = 2.0

let serve_e2e c (d : Proc.daemon) ~setup =
  let t_stop = Clock.now_s () +. c.seconds in
  let rec segments k acc =
    if k > 0 && Clock.now_s () >= t_stop then List.rev acc
    else
      let seg_stop = Float.min t_stop (Clock.now_s () +. segment_s) in
      let cal = Calib.watch d.pid in
      let cpu0 = Proc.process_cpu_s d.pid in
      let batch =
        closed_loop
          ~stop:(fun i -> i > 0 && Clock.now_s () >= seg_stop)
          ~tick:(fun () -> Calib.tick cal)
          (fun i -> serve_request c d (k + i))
      in
      let n = List.length batch in
      let cpu = (Proc.process_cpu_s d.pid -. cpu0) /. float_of_int n in
      let batch = List.map (fun (i, lat, r) -> (k + i, lat, r)) batch in
      segments (k + n) ((batch, cpu, Calib.scale cal) :: acc)
  in
  let segs = segments 0 [] in
  let lat =
    List.concat_map
      (fun (batch, _, _) ->
        List.filter_map
          (fun (i, lat, r) ->
            Option.map (fun _ -> lat) (attempt c.tally (Printf.sprintf "request %d" i) r))
          batch)
      segs
  in
  let reference what kind =
    attempt c.tally what
      (Result.bind
         (check_route ~kind:(Gsino.Flow.kind_name kind)
            (route_request c.w d ~text:c.text ~seed:c.w.Workload.reference ~kind
               [ Protocol.Metrics ]))
         (fun (summary, artifacts) ->
           Result.map (fun snap -> (summary, snap)) (artifact_metrics artifacts)))
  in
  let gsino = reference "GSINO reference" Gsino.Flow.Gsino in
  let isino = reference "iSINO reference" Gsino.Flow.Isino in
  let repeat = reference "repeated GSINO reference" Gsino.Flow.Gsino in
  let quality =
    match (gsino, isino, repeat) with
    | Some (summary, g), Some (_, i), Some (again, _) ->
        ignore
          (attempt c.tally "repeat byte-equality"
             (if again = summary then Ok () else Error ("the repeat differs: " ^ again)));
        quality_metrics ~gsino:g ~isino:i
    | _ -> []
  in
  ignore (attempt c.tally "final stats" (stats_ok d));
  (* SIGTERM must drain the daemon to exit 0 *)
  let exit = Proc.stop_daemon d in
  ignore
    (attempt c.tally "daemon drain"
       (if exit.Proc.code = 0 then Ok () else Error (Printf.sprintf "exit %d" exit.Proc.code)));
  log_raw "request (CPU: per segment)" ~wall:lat ~cpu:(List.map (fun (_, cpu, _) -> cpu) segs);
  [
    ( "cpu_s_per_op",
      Calib.faster_half_mean (List.map (fun (_, cpu, scale) -> cpu *. scale) segs) );
    ("setup_s", setup);
    ("peak_rss_mb", float_of_int exit.Proc.maxrss_kb /. 1024.0);
  ]
  @ quality

(* setup_s: the median over [launches] fresh daemons of the CPU seconds
   each spends from spawn to its first pong, rescaled by Calib.  Start-up
   forces every shared model (LSK table, Formula-3 fit) and routes
   nothing.  serve-warm keeps the last daemon as its own.  The others
   are stopped without the drain check: gsino_serve answers pings before
   it installs its SIGTERM handler (Server.run), so a SIGTERM right
   after the first pong may kill it outright. *)
let setup c ~launches =
  let rec go i acc =
    let d = Proc.start_daemon ~dir:c.dir ~tag:(Printf.sprintf "setup%d" i) ~jobs:1 in
    let acc = d :: acc in
    if i + 1 < launches then begin
      ignore (Proc.stop_daemon d);
      go (i + 1) acc
    end
    else (acc, d)
  in
  let launched, d = go 0 [] in
  log_raw "daemon start-up"
    ~wall:(List.map (fun (d : Proc.daemon) -> d.ready_s) launched)
    ~cpu:(List.map (fun (d : Proc.daemon) -> d.ready_cpu_s) launched);
  (median (List.map (fun (d : Proc.daemon) -> d.ready_cpu_s *. d.ready_scale) launched), d)

let e2e c ~launches =
  let setup_s, d = setup c ~launches in
  let values =
    match c.w.Workload.mode with
    | Workload.Serve -> serve_e2e c d ~setup:setup_s
    | Workload.Cli ->
        ignore (Proc.stop_daemon d);
        cli_e2e c ~setup:setup_s
  in
  values
  @ [
      ( "passed_frac",
        float_of_int (c.tally.attempted - c.tally.failed)
        /. float_of_int (max 1 c.tally.attempted) );
    ]

(* ---------------- traced ---------------- *)

type replayed = { layers : (string * float) list; events : Json.t list }

let replay c ~variant =
  let out = Filename.concat c.dir "replay.json" in
  let exit =
    Proc.run ~stdout:(Filename.concat c.dir "replay.out")
      ~stderr:(Filename.concat c.dir "replay.err") Sys.executable_name
      [
        "--replay"; "--workload"; c.w.Workload.name; "--seed"; string_of_int c.seed;
        "--variant"; string_of_int variant; "--netlist"; c.netlist; "--dir"; c.dir;
        "--op-out"; out;
      ]
  in
  if exit.Proc.code <> 0 then
    Error
      (Printf.sprintf "replay exited %d: %s" exit.Proc.code
         (read_file (Filename.concat c.dir "replay.err")))
  else
    let j = match Json.read_file out with Ok j -> j | Error m -> fail "%s" m in
    let field name = Option.get (Json.member name j) in
    match field "error" with
    | Json.Str m -> Error m
    | _ ->
        let layers =
          match field "layers" with
          | Json.Obj kv ->
              List.map
                (fun (k, v) ->
                  (k, match v with Json.Float f -> f | Json.Int n -> float_of_int n | _ -> nan))
                kv
          | _ -> []
        in
        let events = match field "trace_events" with Json.List l -> l | _ -> [] in
        Ok
          {
            layers = layers @ [ ("exec.cpu_per_wall", exit.Proc.cpu_s /. exit.Proc.wall_s) ];
            events;
          }

let traced c =
  let d = Proc.start_daemon ~dir:c.dir ~tag:"trace" ~jobs:c.w.Workload.jobs in
  let ping () =
    let t0 = Clock.now_s () in
    match Client.request ~timeout_s:10.0 d.Proc.socket Protocol.Ping with
    | Protocol.Pong -> 1000.0 *. (Clock.now_s () -. t0)
    | Protocol.Stats_reply _ | Protocol.Result _ | Protocol.Err _ -> fail "ping: unexpected reply"
  in
  let rtt = median (List.init 21 (fun _ -> ping ())) in
  ignore (Proc.stop_daemon d);
  let t_start = Clock.now_s () in
  (* start another replay only if it should end inside the window *)
  let rec loop i acc =
    let elapsed = Clock.now_s () -. t_start in
    if i > 0 && elapsed *. float_of_int (i + 1) /. float_of_int i > c.seconds then acc
    else
      let r = attempt c.tally (Printf.sprintf "replay %d" i) (replay c ~variant:i) in
      loop (i + 1) (match r with Some r -> r :: acc | None -> acc)
  in
  let runs = List.rev (loop 0 []) in
  let trace_file = Filename.concat Proc.root (c.w.Workload.name ^ ".trace.json") in
  Json.write_file trace_file
    (Json.Obj [ ("traceEvents", Json.List (List.concat_map (fun r -> r.events) runs)) ]);
  log "perf: spans of %d traced op(s) written to %s" (List.length runs) trace_file;
  let layer name = median (List.filter_map (fun r -> List.assoc_opt name r.layers) runs) in
  List.filter_map
    (fun (name, _) ->
      if name = "serve.ping_rtt_ms" then Some (name, rtt)
      else if runs = [] then None
      else Some (name, layer name))
    per_layer

(* ---------------- main ---------------- *)

type outcome = { attempted : int; failed : int; metrics : (string * string * float) list }

let run_workload (w : Workload.t) ~seed ~seconds ~trace ~launches =
  let dir = Proc.make_scratch w.Workload.name in
  let netlist = Filename.concat dir "netlist.nl" in
  let gen =
    Proc.run ~stdout:(Filename.concat dir "gen.out") ~stderr:(Filename.concat dir "gen.err")
      (Proc.run_exe ()) (Workload.gen_args w ~out:netlist)
  in
  if gen.Proc.code <> 0 then fail "gsino_run gen exited %d" gen.Proc.code;
  let c =
    {
      w;
      dir;
      netlist;
      text = read_file netlist;
      seed;
      seconds;
      tally = { attempted = 0; failed = 0 };
      lines = Hashtbl.create 8;
    }
  in
  let values = if trace then traced c else e2e c ~launches in
  let table = if trace then per_layer else end_to_end in
  (* a metric with no sample (every op failed) is left out, not NaN *)
  let metrics =
    List.filter_map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v when Float.is_finite v -> Some (name, unit, v)
        | Some _ | None -> None)
      table
  in
  Proc.kill_all ();
  Proc.rm_tree dir;
  { attempted = c.tally.attempted; failed = c.tally.failed; metrics }

let correct o = o.failed = 0 && o.attempted > 0

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
             o.metrics) );
    ]

(* --quick: every workload at toy size in both modes, two runs at a
   time, each a child `perf.exe --toy` whose result object must be
   correct and carry exactly the metrics BENCHMARK.json names for its
   mode, with their units. *)
let quick () =
  let spec =
    match Json.read_file "BENCHMARK.json" with Ok j -> j | Error m -> fail "BENCHMARK.json: %s" m
  in
  let named key =
    match Json.member key spec with
    | Some (Json.List l) ->
        List.filter_map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> fail "BENCHMARK.json lacks %s" key
  in
  let dir = Proc.make_scratch "quick" in
  let jobs =
    List.concat_map (fun w -> [ (w.Workload.name, 0); (w.Workload.name, 1) ]) Workload.all
  in
  let verdict (name, trace) exit =
    let out = read_file (Filename.concat dir (Printf.sprintf "%s-%d.out" name trace)) in
    let last =
      List.fold_left
        (fun acc l -> if String.trim l = "" then acc else l)
        "" (String.split_on_char '\n' out)
    in
    let want = named (if trace = 1 then "per_layer" else "end_to_end") in
    match Json.of_string last with
    | _ when exit.Proc.code <> 0 -> Error (Printf.sprintf "exited %d" exit.Proc.code)
    | Error m -> Error ("no result object: " ^ m)
    | Ok j -> (
        let got =
          match Json.member "metrics" j with
          | Some (Json.Obj kv) ->
              List.map
                (fun (n, v) ->
                  (n, match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "?"))
                kv
          | _ -> []
        in
        match (Json.member "correct" j, Json.member "failed" j) with
        | Some (Json.Bool true), Some (Json.Int 0)
          when List.sort compare got = List.sort compare want ->
            Ok ()
        | Some (Json.Bool true), _ ->
            Error
              (Printf.sprintf "metrics [%s], BENCHMARK.json names [%s]"
                 (String.concat " " (List.map fst got))
                 (String.concat " " (List.map fst want)))
        | _ -> Error ("not correct: " ^ last))
  in
  let rec batches = function
    | a :: b :: rest -> [ a; b ] :: batches rest
    | rest -> [ rest ]
  in
  let ok = ref true in
  List.iter
    (fun batch ->
      let t0 = Clock.now_s () in
      let pids =
        List.map
          (fun (name, trace) ->
            let file ext = Filename.concat dir (Printf.sprintf "%s-%d.%s" name trace ext) in
            Proc.spawn ~stdout:(file "out") ~stderr:(file "err") Sys.executable_name
              [
                "--workload"; name; "--trace"; string_of_int trace; "--toy"; "--bin"; !Proc.bin_dir;
              ])
          batch
      in
      List.iter2
        (fun job pid ->
          let v = verdict job (Proc.reap pid ~t0) in
          if Result.is_error v then ok := false;
          Printf.printf "%-13s trace=%d  %s\n%!" (fst job) (snd job)
            (match v with Ok () -> "ok" | Error m -> "FAIL: " ^ m))
        batch pids)
    (batches jobs);
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 25 and trace = ref 0 in
  let out = ref "" and quick_mode = ref false and toy = ref false in
  let replay_mode = ref false and variant = ref 0 and netlist = ref "" and dir = ref "" in
  let op_out = ref "" in
  let usage =
    "perf.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out FILE] | --quick"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run (see BENCHMARK.json)");
      ("--seed", Arg.Set_int seed, "S seed of the op inputs (default 7)");
      ("--seconds", Arg.Set_int seconds, "T measurement window in seconds (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--out", Arg.Set_string out, "FILE also write the result object to FILE");
      ("--quick", Arg.Set quick_mode, " self-check the workloads at toy size");
      ("--bin", Arg.Set_string Proc.bin_dir, "DIR where gsino_run.exe and gsino_serve.exe are");
      ("--toy", Arg.Set toy, " scale 0.02, one set-up launch, one CLI op or a 1 s serve window");
      ("--replay", Arg.Set replay_mode, " (internal) run one traced op");
      ("--variant", Arg.Set_int variant, "I (internal) op index to replay");
      ("--netlist", Arg.Set_string netlist, "FILE (internal) netlist to replay");
      ("--dir", Arg.Set_string dir, "DIR (internal) the run's scratch directory");
      ("--op-out", Arg.Set_string op_out, "FILE (internal) where the replay writes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt in
  let w =
    match Workload.find !workload with
    | Some w -> Some w
    | None when !quick_mode -> None
    | None -> die "unknown workload %S (%s)" !workload usage
  in
  match w with
  | Some w when !replay_mode ->
      Replay.main w ~seed:!seed ~variant:!variant ~netlist:!netlist ~dir:!dir ~out:!op_out
  | _ ->
      List.iter
        (fun exe -> if not (Sys.file_exists exe) then die "%s is missing; build it first (dune build)" exe)
        [ Proc.run_exe (); Proc.serve_exe () ];
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      at_exit Proc.kill_all;
      let abort signal =
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun s ->
               prerr_endline
                 (if s = Sys.sigalrm then "perf: run exceeded its time limit" else "perf: interrupted");
               exit 3))
      in
      List.iter abort [ Sys.sigalrm; Sys.sigint; Sys.sigterm ];
      if !quick_mode then quick ()
      else begin
        let w = Option.get w in
        (* every op is bounded, but a wedged child must not outlive the
           run's 180 s allowance *)
        ignore (Unix.alarm 170);
        let w, seconds, launches =
          if !toy then
            ( { w with Workload.scale = 0.02 },
              (if w.Workload.mode = Workload.Serve then 1.0 else 0.0),
              1 )
          else (w, float_of_int !seconds, 3)
        in
        let o = run_workload w ~seed:!seed ~seconds ~trace:(!trace = 1) ~launches in
        List.iter (fun (name, unit, v) -> Printf.printf "%s %.6g %s\n" name v unit) o.metrics;
        let j = Json.to_string (result_json o) in
        if !out <> "" then Out_channel.with_open_bin !out (fun oc -> output_string oc (j ^ "\n"));
        print_endline j
      end
