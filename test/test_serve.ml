(* The routing daemon: protocol codecs, per-request fault isolation
   (malformed/oversized frames, injected faults, disconnects, expired
   deadlines each degrade only their own request), bounded admission
   backpressure, concurrent-request result identity, per-request
   metrics isolation, signals landing on daemon domains and graceful
   drain. *)
open Gsino
module Server = Eda_serve.Server
module Client = Eda_serve.Client
module Protocol = Eda_serve.Protocol
module Error = Eda_guard.Error
module Fault = Eda_guard.Fault
module Generator = Eda_netlist.Generator
module Io = Eda_netlist.Io

(* ---------------- fixtures ---------------- *)

let netlist_text =
  lazy
    (let tech = Tech.default in
     let profile =
       match Generator.find_ibm "ibm01" with
       | Some p -> p
       | None -> Alcotest.fail "ibm01 profile missing"
     in
     Io.to_string
       (Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.01 ~seed:3
          profile))

let route_request ?(deadline_ms = 0) ?(artifacts = []) () =
  Protocol.Route
    {
      netlist = Lazy.force netlist_text;
      options =
        { Protocol.default_options with Protocol.deadline_ms; artifacts };
    }

let tmpdir () =
  let d = Filename.temp_file "gsino_serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let with_server ?(workers = 1) ?(jobs = 1) ?(queue_bound = 4)
    ?(max_frame = Protocol.max_frame_default) ?(request_deadline_ms = 0)
    ?(drain_ms = 0) f =
  let dir = tmpdir () in
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start
      {
        Server.socket;
        workers;
        jobs;
        queue_bound;
        max_frame;
        request_deadline_ms;
        drain_ms;
        read_timeout_s = 2.0;
        cache = None;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.drain t;
      Server.wait t;
      (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()))
    (fun () -> f ~socket t)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_raw fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "raw write complete" (String.length s) n

(* read the server's framed response off a raw connection *)
let read_response fd =
  match Protocol.read_frame ~timeout_s:30.0 fd with
  | Protocol.Frame payload -> (
      match Protocol.response_of_string payload with
      | Ok r -> r
      | Error e -> Alcotest.fail ("undecodable response: " ^ Error.to_string e))
  | Protocol.Eof -> Alcotest.fail "eof instead of a response frame"
  | Protocol.Reject e -> Alcotest.fail ("reject reading response: " ^ Error.to_string e)

let expect_err ~gsl ~exit_code what = function
  | Protocol.Err { gsl = g; exit_code = ec; _ } ->
      Alcotest.(check int) (what ^ " gsl") gsl g;
      Alcotest.(check int) (what ^ " exit") exit_code ec
  | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Result _ ->
      Alcotest.fail (what ^ ": expected an error response")

(* (status, summary, findings, artifacts) *)
let expect_result what = function
  | Protocol.Result { status; summary; findings; artifacts } ->
      (status, summary, findings, artifacts)
  | Protocol.Err { gsl; message; _ } ->
      Alcotest.fail
        (Printf.sprintf "%s: unexpected error GSL%04d %s" what gsl message)
  | Protocol.Pong | Protocol.Stats_reply _ ->
      Alcotest.fail (what ^ ": expected a result response")

let ping_ok ~socket what =
  match Client.request ~timeout_s:10.0 socket Protocol.Ping with
  | Protocol.Pong -> ()
  | Protocol.Err { message; _ } ->
      Alcotest.fail (what ^ ": ping errored: " ^ message)
  | Protocol.Stats_reply _ | Protocol.Result _ ->
      Alcotest.fail (what ^ ": ping got a non-pong")

(* ---------------- protocol codecs ---------------- *)

let test_codec_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Stats;
      route_request ~deadline_ms:250
        ~artifacts:[ Protocol.Report; Protocol.Metrics ] ();
    ]
  in
  List.iter
    (fun req ->
      let s = Eda_obs.Json.to_string (Protocol.request_to_json req) in
      match Protocol.request_of_string s with
      | Ok req' ->
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Error e -> Alcotest.fail (Error.to_string e))
    reqs;
  let resps =
    [
      Protocol.Pong;
      Protocol.Result
        {
          status = "ok";
          summary = "s";
          findings = [ "GSL0005 W - x" ];
          artifacts = [ ("report", "text\nwith\nlines") ];
        };
      Protocol.error_response
        (Error.Overload { reason = "queue-full"; depth = 4 });
    ]
  in
  List.iter
    (fun resp ->
      let s = Eda_obs.Json.to_string (Protocol.response_to_json resp) in
      match Protocol.response_of_string s with
      | Ok resp' ->
          Alcotest.(check bool) "response round-trips" true (resp = resp')
      | Error e -> Alcotest.fail (Error.to_string e))
    resps

let test_codec_rejects () =
  let bad =
    [
      "not json at all";
      {|{"schema":"gsino-serve-v0","kind":"ping"}|};
      {|{"schema":"gsino-serve-v1","kind":"launch-missiles"}|};
      {|{"schema":"gsino-serve-v1","kind":"route","netlist":"x","options":{"typo":1}}|};
      {|{"schema":"gsino-serve-v1","kind":"route","netlist":"x","options":{"rate":1.5}}|};
      {|{"schema":"gsino-serve-v1","kind":"route","netlist":"x","options":{"rate":-0.1}}|};
    ]
  in
  List.iter
    (fun s ->
      match Protocol.request_of_string s with
      | Ok _ -> Alcotest.fail ("decoded garbage: " ^ s)
      | Error e ->
          Alcotest.(check int) "frame-class gsl" 30 (Error.gsl_code e))
    bad

(* ---------------- liveness ---------------- *)

let test_ping_stats () =
  with_server @@ fun ~socket t ->
  ping_ok ~socket "fresh daemon";
  (match Client.request ~timeout_s:10.0 socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      Alcotest.(check int) "workers" 1 s.Protocol.workers;
      Alcotest.(check bool) "not draining" false s.Protocol.draining;
      Alcotest.(check int) "nothing active" 0 s.Protocol.active
  | Protocol.Pong | Protocol.Result _ | Protocol.Err _ ->
      Alcotest.fail "stats: wrong response kind");
  Alcotest.(check bool) "server-side stats agree" false
    (Server.stats t).Protocol.draining

let test_drain_unlinks_socket () =
  let dir = tmpdir () in
  let socket = Filename.concat dir "s.sock" in
  let t = Server.start { Server.default_config with Server.socket } in
  ping_ok ~socket "before drain";
  Server.drain t;
  Server.wait t;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ())

(* A process-directed signal (the drain's SIGTERM) lands on any thread
   not blocking it.  One that lands on the accept domain interrupts its
   select; the domain must keep serving. *)
let test_signal_on_daemon_domain () =
  let dir = tmpdir () in
  let socket = Filename.concat dir "s.sock" in
  let t = Server.start { Server.default_config with Server.socket; workers = 1 } in
  let prev = Sys.signal Sys.sigusr1 (Sys.Signal_handle ignore) in
  (* with this thread blocking it, the kernel must pick a daemon thread *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr1 ]);
  for _ = 1 to 20 do
    Unix.kill (Unix.getpid ()) Sys.sigusr1;
    Thread.delay 0.01
  done;
  ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigusr1 ]);
  Sys.set_signal Sys.sigusr1 prev;
  let alive =
    match Client.request ~timeout_s:5.0 socket Protocol.Ping with
    | Protocol.Pong -> true
    | Protocol.Stats_reply _ | Protocol.Result _ | Protocol.Err _ -> false
    | exception Error.Error _ -> false
  in
  Server.drain t;
  (* a dead accept domain never reports done: only wait on a live one *)
  if alive then Server.wait t;
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  Alcotest.(check bool) "accept domain survives a signal" true alive

(* ---------------- frame robustness ---------------- *)

let test_malformed_frames () =
  with_server @@ fun ~socket _t ->
  (* truncated header: two bytes then EOF *)
  let fd = raw_connect socket in
  write_raw fd "xy";
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  expect_err ~gsl:30 ~exit_code:2 "truncated header" (read_response fd);
  Unix.close fd;
  ping_ok ~socket "after truncated header";
  (* truncated body: header promises 100 bytes, 10 arrive *)
  let fd = raw_connect socket in
  write_raw fd "\x00\x00\x00\x64helloooooo";
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  expect_err ~gsl:30 ~exit_code:2 "truncated body" (read_response fd);
  Unix.close fd;
  ping_ok ~socket "after truncated body";
  (* syntactically valid frame, garbage payload *)
  let fd = raw_connect socket in
  Protocol.write_frame fd "this is not json";
  expect_err ~gsl:30 ~exit_code:2 "garbage payload" (read_response fd);
  Unix.close fd;
  ping_ok ~socket "after garbage payload"

let test_oversized_frame () =
  with_server ~max_frame:1024 @@ fun ~socket _t ->
  let fd = raw_connect socket in
  (* announce 1 MiB: must be rejected from the header alone *)
  write_raw fd "\x00\x10\x00\x00";
  expect_err ~gsl:30 ~exit_code:2 "oversized" (read_response fd);
  Unix.close fd;
  ping_ok ~socket "after oversized frame"

(* ---------------- routing ---------------- *)

let volatile_prefixes = [ "exec."; "gc."; "prof."; "sino.cache_"; "serve." ]

let metrics_of_artifact artifact =
  match Result.bind (Eda_obs.Json.of_string artifact) Eda_obs.Metrics.of_json with
  | Ok snap -> snap
  | Error msg -> Alcotest.fail ("metrics artifact unreadable: " ^ msg)

let stable_metric_entries artifact =
  List.filter
    (fun (name, _, _) ->
      name <> "flow.phase_seconds"
      && not
           (List.exists
              (fun p -> String.starts_with ~prefix:p name)
              volatile_prefixes))
    (Eda_obs.Metrics.entries (metrics_of_artifact artifact))

let test_route_identity_concurrent () =
  with_server ~workers:2 @@ fun ~socket _t ->
  let req = route_request ~artifacts:[ Protocol.Metrics ] () in
  let results = Array.make 4 None in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun i ->
            results.(i) <- Some (Client.request ~timeout_s:120.0 socket req))
          i)
  in
  List.iter Thread.join threads;
  let rs =
    Array.to_list results
    |> List.map (function
         | Some r -> expect_result "concurrent route" r
         | None -> Alcotest.fail "client thread produced nothing")
  in
  let status0, _, findings0, artifacts0 = List.hd rs in
  Alcotest.(check bool) "some findings listed" true
    (List.length findings0 > 0);
  List.iteri
    (fun i (status, _, findings, artifacts) ->
      Alcotest.(check bool)
        (Printf.sprintf "findings %d identical" i)
        true (findings = findings0);
      Alcotest.(check string) (Printf.sprintf "status %d" i) status0 status;
      (* metrics artifacts agree modulo the documented volatile series *)
      match (artifacts, artifacts0) with
      | [ (_, m) ], [ (_, m0) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "stable metrics %d identical" i)
            true
            (stable_metric_entries m = stable_metric_entries m0)
      | _, _ -> Alcotest.fail "expected exactly the metrics artifact")
    rs

(* The metrics artifact of one route request. *)
let route_metrics ~socket what artifacts =
  let _, _, _, arts =
    expect_result what
      (Client.request ~timeout_s:120.0 socket (route_request ~artifacts ()))
  in
  match List.assoc_opt "metrics" arts with
  | Some m -> m
  | None -> Alcotest.fail (what ^ ": no metrics artifact")

(* A daemon without a store gives each request a cache of its own: a
   repeat request hits exactly as often as the first, and the daemon
   keeps no entry. *)
let test_storeless_requests_independent () =
  with_server @@ fun ~socket _t ->
  let hits what =
    Eda_obs.Metrics.counter_total
      (metrics_of_artifact (route_metrics ~socket what [ Protocol.Metrics ]))
      "sino.cache_hits"
  in
  let h1 = hits "request 1" in
  Alcotest.(check int) "a repeat hits no entry of request 1" h1
    (hits "request 2");
  match Client.request ~timeout_s:10.0 socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      Alcotest.(check int) "cache_len" 0 s.Protocol.cache_len
  | Protocol.Pong | Protocol.Result _ | Protocol.Err _ ->
      Alcotest.fail "stats: wrong response kind"

(* A request that registers an instrument lazily (the trace artifact
   registers trace.dropped_spans) must not leak it into the next
   requests' exports on the same reused worker domain, and a later
   request that registers it again must export it again. *)
let test_lazy_instrument_isolated () =
  (* started from an empty registry, the daemon's template holds only
     what its own start-up registers, whatever ran earlier in this
     process *)
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  with_server ~workers:1 @@ fun ~socket _t ->
  let metrics what artifacts =
    stable_metric_entries (route_metrics ~socket what artifacts)
  in
  let dropped = List.exists (fun (name, _, _) -> name = "trace.dropped_spans") in
  let m1 = metrics "trace request" [ Protocol.Trace; Protocol.Metrics ] in
  let m2 = metrics "second request" [ Protocol.Metrics ] in
  let m3 = metrics "third request" [ Protocol.Metrics ] in
  Alcotest.(check bool) "trace request exports it" true (dropped m1);
  Alcotest.(check bool) "second request does not" false (dropped m2);
  Alcotest.(check bool) "third request does not" false (dropped m3);
  Alcotest.(check bool) "stable series of 2 and 3 equal" true (m2 = m3);
  let m4 = metrics "second trace request" [ Protocol.Trace; Protocol.Metrics ] in
  Alcotest.(check bool) "re-registered instrument exported again" true (dropped m4)

(* Same answer as batch for a request that asks for metrics only: its
   stable series equal those of the same lint-shaped flow run on this
   domain in a copy of the daemon's start-up registry, as `gsino_run
   lint --metrics` runs it, so it exports no journal.events series.
   Asking for the journal adds exactly that series, counting the
   journal's events. *)
let test_metrics_only_matches_batch () =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  with_server ~workers:1 @@ fun ~socket _t ->
  let batch =
    Eda_obs.Metrics.(with_registry (zeroed_copy (current_registry ())))
    @@ fun () ->
    let o = Protocol.default_options in
    let config =
      {
        Flow.Config.default with
        Flow.Config.router = o.Protocol.router;
        budgeting = o.Protocol.budgeting;
        seed = o.Protocol.seed;
        jobs = 1;
      }
    in
    Flow.run_kinds config Tech.default ~rate:o.Protocol.rate [ o.Protocol.kind ]
      (Io.of_string (Lazy.force netlist_text))
      ~f:(fun r -> ignore (Flow.check r))
    |> ignore;
    stable_metric_entries (Eda_obs.Artifact.metrics ())
  in
  let events = List.filter (fun (name, _, _) -> name = "journal.events") in
  let served =
    stable_metric_entries (route_metrics ~socket "metrics only" [ Protocol.Metrics ])
  in
  Alcotest.(check int) "no journal.events" 0 (List.length (events served));
  Alcotest.(check bool) "stable series equal batch's" true (served = batch);
  let _, _, _, arts =
    expect_result "journaled"
      (Client.request ~timeout_s:120.0 socket
         (route_request ~artifacts:[ Protocol.Metrics; Protocol.Journal ] ()))
  in
  let journaled = stable_metric_entries (List.assoc "metrics" arts) in
  let n_events =
    match Eda_obs.Journal.of_string (List.assoc "journal" arts) with
    | Ok evs -> List.length evs
    | Error msg -> Alcotest.fail ("journal artifact unreadable: " ^ msg)
  in
  Alcotest.(check bool) "journaled series are batch's plus journal.events" true
    (List.filter (fun (name, _, _) -> name <> "journal.events") journaled = batch);
  match events journaled with
  | [ (_, [], Eda_obs.Metrics.Counter n) ] ->
      Alcotest.(check int) "journal.events counts the journal" n_events n
  | _ -> Alcotest.fail "journaled request: expected one journal.events counter"

(* Every request on a one-worker jobs=2 daemon runs its parallel
   sections on the worker's pool; each export must count them (sections,
   imbalance samples), not only the first request's. *)
let test_parallel_sections_every_request () =
  with_server ~workers:1 ~jobs:2 @@ fun ~socket _t ->
  let sections what =
    let snap =
      metrics_of_artifact (route_metrics ~socket what [ Protocol.Metrics ])
    in
    let imbalance =
      match Eda_obs.Metrics.find snap "exec.imbalance" with
      | Some (Eda_obs.Metrics.Histogram h) -> h.Eda_obs.Metrics.count
      | Some (Eda_obs.Metrics.Counter _ | Eda_obs.Metrics.Gauge _) | None -> 0
    in
    (Eda_obs.Metrics.counter_total snap "exec.sections", imbalance)
  in
  let s1 = sections "request 1" in
  Alcotest.(check bool) "request 1 ran parallel sections" true (fst s1 > 0);
  Alcotest.(check (pair int int)) "request 2 exports them too" s1
    (sections "request 2");
  Alcotest.(check (pair int int)) "request 3 exports them too" s1
    (sections "request 3")


(* A journal artifact without its wall-clock payloads and cache
   dimension, as the routing-service gate compares journals. *)
let stable_journal artifact =
  match Eda_obs.Journal.of_string artifact with
  | Error msg -> Alcotest.fail ("journal artifact unreadable: " ^ msg)
  | Ok evs ->
      List.map
        (fun (e : Eda_obs.Journal.event) ->
          {
            e with
            dim = List.filter (fun (k, _) -> k <> "cache") e.dim;
            data = List.filter (fun (k, _) -> not (String.ends_with ~suffix:"_us" k)) e.data;
          })
        evs

(* The stable metrics and journal of [o] run as a batch lint would run
   it at [jobs] (default 1), on this domain, in a copy of the current
   registry (the daemon's start-up registry), journaled when [o] asks
   for the journal. *)
let batch_outputs ?(jobs = 1) (o : Protocol.options) =
  Eda_obs.Metrics.(with_registry (zeroed_copy (current_registry ()))) @@ fun () ->
  if List.mem Protocol.Journal o.Protocol.artifacts then Eda_obs.Journal.enable ();
  Fun.protect ~finally:Eda_obs.Journal.disable @@ fun () ->
  let config =
    {
      Flow.Config.default with
      Flow.Config.router = o.Protocol.router;
      budgeting = o.Protocol.budgeting;
      seed = o.Protocol.seed;
      jobs;
    }
  in
  Flow.run_kinds config Tech.default ~rate:o.Protocol.rate [ o.Protocol.kind ]
    (Io.of_string (Lazy.force netlist_text))
    ~f:(fun r -> ignore (Flow.check r))
  |> ignore;
  ( stable_metric_entries (Eda_obs.Artifact.metrics ()),
    stable_journal (Eda_obs.Artifact.journal ()) )

(* The daemon-lifetime prepare counters, published into the registry
   current where the daemon drained. *)
let prepare_counts () =
  let snap = Eda_obs.Metrics.snapshot () in
  ( Eda_obs.Metrics.counter_total snap "serve.prepare_hits",
    Eda_obs.Metrics.counter_total snap "serve.prepare_misses" )

(* Route [options] on the test netlist: the response's stable metrics
   and journal must equal [batch_outputs ~jobs options].  At jobs > 1
   the journals compare as multisets, as CI's routing-service gate
   compares them: which of two concurrent duplicate panels hits the
   cache, and so the canonical order, depends on scheduling. *)
let route_matches_batch ?(jobs = 1) ~socket (what, options) =
  let _, _, _, arts =
    expect_result what
      (Client.request ~timeout_s:120.0 socket
         (Protocol.Route { netlist = Lazy.force netlist_text; options }))
  in
  let metrics, journal = batch_outputs ~jobs options in
  let order evs = if jobs > 1 then List.sort compare evs else evs in
  Alcotest.(check bool) (what ^ ": stable metrics equal batch's") true
    (stable_metric_entries (List.assoc "metrics" arts) = metrics);
  Alcotest.(check bool) (what ^ ": journal equals batch's") true
    (order (Option.fold ~none:[] ~some:stable_journal (List.assoc_opt "journal" arts))
    = order journal)

(* One netlist served at three seeds, then iSINO, then twice with the
   NC router: every request after each router's first replays the
   memo's preparation, and every response equals the batch flow's.
   The first request asks for metrics only, so the entry it leaves must
   still journal the preparation for the requests that ask. *)
let test_prepared_netlist_reused () =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  with_server ~workers:1 (fun ~socket _t ->
      let o =
        {
          Protocol.default_options with
          Protocol.artifacts = [ Protocol.Metrics; Protocol.Journal ];
        }
      in
      List.iter (route_matches_batch ~socket)
        [
          ("GSINO seed 7, metrics only", { o with Protocol.artifacts = [ Protocol.Metrics ] });
          ("GSINO seed 8", { o with Protocol.seed = 8 });
          ("GSINO seed 9", { o with Protocol.seed = 9 });
          ("iSINO", { o with Protocol.kind = Flow.Isino });
          ("NC miss", { o with Protocol.router = Flow.Negotiated });
          ("NC hit", { o with Protocol.router = Flow.Negotiated; seed = 8 });
        ]);
  Alcotest.(check (pair int int)) "hits and misses" (4, 2) (prepare_counts ())

(* A pooled daemon answers like a pooled batch run: on a one-worker
   jobs=2 daemon every pool section of a request, and of the
   preparation a miss records, reaches the response through a replay.
   An NC-router, route-aware GSINO request misses and a second seed
   hits; both equal the batch flow at jobs 2. *)
let test_pooled_daemon_matches_batch () =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  with_server ~workers:1 ~jobs:2 (fun ~socket _t ->
      let o =
        {
          Protocol.default_options with
          Protocol.router = Flow.Negotiated;
          budgeting = Flow.Route_aware;
          artifacts = [ Protocol.Metrics; Protocol.Journal ];
        }
      in
      List.iter
        (route_matches_batch ~jobs:2 ~socket)
        [ ("NC route-aware miss", o); ("NC route-aware hit", { o with Protocol.seed = 8 }) ]);
  Alcotest.(check (pair int int)) "hits and misses" (1, 1) (prepare_counts ())

(* The netlist with the last byte of its name record replaced by [c]. *)
let renamed c =
  let text = Lazy.force netlist_text in
  let i = String.index_from text (String.index text '\n' + 1) '\n' - 1 in
  String.mapi (fun j ch -> if j = i then c else ch) text

(* A one-byte edit misses and replaces the kept preparation, so the
   original then misses again; a repeat of the last text hits. *)
let test_memo_edit_misses () =
  Eda_obs.Metrics.(with_registry (fresh_registry ())) @@ fun () ->
  let a = renamed 'a' and b = renamed 'b' in
  Alcotest.(check bool) "one byte apart" true
    (String.length a = String.length b && a <> b);
  with_server ~workers:1 (fun ~socket _t ->
      List.iter
        (fun text ->
          ignore
            (expect_result "route"
               (Client.request ~timeout_s:120.0 socket
                  (Protocol.Route
                     {
                       netlist = text;
                       options = { Protocol.default_options with Protocol.kind = Flow.Id_no };
                     }))))
        [ a; a; b; a; a ]);
  Alcotest.(check (pair int int)) "hits and misses" (2, 3) (prepare_counts ())

let test_request_deadline_degrades () =
  with_server @@ fun ~socket _t ->
  let status, _, _, _ =
    expect_result "deadline route"
      (Client.request ~timeout_s:120.0 socket (route_request ~deadline_ms:1 ()))
  in
  Alcotest.(check string) "degraded status" "degraded" status;
  (* the daemon survives a fully degraded request *)
  ping_ok ~socket "after expired deadline"

let test_injected_fault_isolated () =
  with_server @@ fun ~socket _t ->
  Fault.set
    [ { Fault.site = "serve.request"; mode = Fault.Raise; prob = 1.0; seed = 1 } ];
  Fun.protect ~finally:Fault.clear (fun () ->
      expect_err ~gsl:22 ~exit_code:5 "injected fault"
        (Client.request ~timeout_s:120.0 socket (route_request ())));
  (* fault cleared: the same request now routes; the daemon never died *)
  let status, _, _, _ =
    expect_result "after fault"
      (Client.request ~timeout_s:120.0 socket (route_request ()))
  in
  Alcotest.(check bool) "routes after injected fault" true
    (status = "ok" || status = "degraded")

let test_disconnect_cancels_request () =
  with_server @@ fun ~socket t ->
  let fd = raw_connect socket in
  Protocol.send_request fd (route_request ());
  (* vanish before the response: the monitor must cancel the request *)
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec settle () =
    let s = Server.stats t in
    if s.Protocol.active = 0 && s.Protocol.queue_depth = 0
       && s.Protocol.disconnects + s.Protocol.served + s.Protocol.errors > 0
    then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "request never settled after client disconnect"
    else begin
      Thread.delay 0.05;
      settle ()
    end
  in
  let s = settle () in
  Alcotest.(check int) "counted as disconnect" 1 s.Protocol.disconnects;
  ping_ok ~socket "after mid-request disconnect"

(* A response leaves as soon as its flow ends: the disconnect watcher
   stops at once, not at its next poll.  The served requests may take
   little longer than the same flows run in this process; a watcher
   polling every 0.15 s held each response for 75 ms on average. *)
let test_response_not_held () =
  with_server ~workers:1 @@ fun ~socket _t ->
  let n = 10 in
  let time f =
    let t0 = Eda_obs.Clock.now_s () in
    for _ = 1 to n do
      f ()
    done;
    Eda_obs.Clock.now_s () -. t0
  in
  let route () =
    ignore
      (expect_result "route" (Client.request ~timeout_s:120.0 socket (route_request ())))
  in
  route ();
  let served = time route in
  let o = Protocol.default_options in
  let config =
    {
      Flow.Config.default with
      Flow.Config.router = o.Protocol.router;
      budgeting = o.Protocol.budgeting;
      seed = o.Protocol.seed;
      jobs = 1;
    }
  in
  let direct =
    time (fun () ->
        let netlist = Io.of_string (Lazy.force netlist_text) in
        Flow.run_kinds config Tech.default ~rate:o.Protocol.rate [ o.Protocol.kind ]
          netlist ~f:(fun r -> ignore (Flow.check r))
        |> ignore)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d requests served in %.3f s, flows alone %.3f s" n served direct)
    true
    (served -. direct < 0.05 *. float_of_int n)

let test_backpressure_queue_full () =
  with_server ~workers:1 ~queue_bound:1 @@ fun ~socket _t ->
  (* hold the single worker busy deterministically *)
  Fault.set
    [
      {
        Fault.site = "serve.request";
        mode = Fault.Delay 700;
        prob = 1.0;
        seed = 1;
      };
    ];
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let a = raw_connect socket in
  Protocol.send_request a (route_request ());
  Thread.delay 0.25 (* worker picks A up and sits in the injected delay *);
  let b = raw_connect socket in
  Protocol.send_request b (route_request ());
  Thread.delay 0.1 (* B is queued; the one queue slot is now full *);
  expect_err ~gsl:31 ~exit_code:6 "queue-full reject"
    (Client.request ~timeout_s:10.0 socket (route_request ()));
  ignore (expect_result "held request A" (read_response a));
  ignore (expect_result "queued request B" (read_response b));
  Unix.close a;
  Unix.close b

let test_draining_rejects_new_work () =
  with_server @@ fun ~socket t ->
  Server.drain t;
  (* the accept loop notices within its 0.25 s poll; until the listener
     closes, new route requests get the typed "draining" reject *)
  match Client.request ~timeout_s:10.0 socket (route_request ()) with
  | Protocol.Err { gsl; _ } ->
      Alcotest.(check int) "overload gsl" 31 gsl
  | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Result _ ->
      Alcotest.fail "draining daemon accepted new work"
  | exception Error.Error (Error.Io _) ->
      (* listener already closed: equally acceptable — no new work *)
      ()

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "codec round-trips" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "ping and stats" `Quick test_ping_stats;
        Alcotest.test_case "drain unlinks socket" `Quick test_drain_unlinks_socket;
        Alcotest.test_case "signal on a daemon domain" `Quick
          test_signal_on_daemon_domain;
        Alcotest.test_case "malformed frames isolated" `Quick test_malformed_frames;
        Alcotest.test_case "oversized frame isolated" `Quick test_oversized_frame;
        Alcotest.test_case "draining rejects new work" `Quick
          test_draining_rejects_new_work;
      ] );
    ( "serve.requests",
      [
        Alcotest.test_case "concurrent identity" `Slow
          test_route_identity_concurrent;
        Alcotest.test_case "storeless requests independent" `Slow
          test_storeless_requests_independent;
        Alcotest.test_case "lazy instrument isolated" `Slow
          test_lazy_instrument_isolated;
        Alcotest.test_case "parallel sections every request" `Slow
          test_parallel_sections_every_request;
        Alcotest.test_case "metrics-only request matches batch" `Slow
          test_metrics_only_matches_batch;
        Alcotest.test_case "prepared netlist reused" `Slow
          test_prepared_netlist_reused;
        Alcotest.test_case "memo: an edit misses" `Slow test_memo_edit_misses;
        Alcotest.test_case "deadline degrades request" `Slow
          test_request_deadline_degrades;
        Alcotest.test_case "injected fault isolated" `Slow
          test_injected_fault_isolated;
        Alcotest.test_case "response not held by the watcher" `Slow
          test_response_not_held;
        Alcotest.test_case "disconnect cancels request" `Slow
          test_disconnect_cancels_request;
        Alcotest.test_case "queue-full backpressure" `Slow
          test_backpressure_queue_full;
        Alcotest.test_case "pooled daemon matches pooled batch" `Slow
          test_pooled_daemon_matches_batch;
      ] );
  ]
