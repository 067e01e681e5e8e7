(* gsino_serve — the routing daemon and its thin client.

   `gsino_serve daemon` runs the fault-isolated routing service on a
   Unix-domain socket (gsino-serve-v1 framed protocol): concurrent
   request domains, bounded admission queue, per-request deadlines,
   graceful SIGTERM/SIGINT drain.  `route`/`ping`/`stats` are the
   client: `route` builds the same netlist the batch drivers would,
   sends it, and writes the returned artifacts to the standard sink
   flags — so `gsino_serve route` is a drop-in for `gsino_run lint`
   with the computation happening in the daemon.

   Exit codes mirror the batch drivers (see cli_common): a framed error
   response exits with the code the batch CLI would have used; client
   i/o failures (daemon unreachable, mid-read disconnect) exit 7. *)
open Cmdliner
open Gsino
module C = Cli_common
module Server = Eda_serve.Server
module Client = Eda_serve.Client
module Protocol = Eda_serve.Protocol
module Io = Eda_netlist.Io
module Error = Eda_guard.Error
module Diag = Eda_check.Diag

let prog = "gsino_serve"

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  let env = Cmd.Env.info "GSINO_SERVE_SOCKET" ~doc:"Default for $(b,--socket)." in
  Arg.(value & opt string "gsino.sock" & info [ "socket" ] ~docv:"PATH" ~env ~doc)

(* ---------------- daemon ---------------- *)

let workers_arg =
  let doc = "Concurrent request domains (each serves one request at a time)." in
  Arg.(value & opt int Server.default_config.Server.workers
     & info [ "w"; "workers" ] ~docv:"N" ~doc)

let queue_bound_arg =
  let doc =
    "Admission queue bound: requests beyond $(docv) queued-but-unstarted \
     are rejected with a typed 'overloaded' error (GSL0031) instead of \
     queueing without bound."
  in
  Arg.(value & opt int Server.default_config.Server.queue_bound
     & info [ "queue-bound" ] ~docv:"N" ~doc)

let max_frame_arg =
  let doc = "Largest request frame accepted, in bytes." in
  Arg.(value & opt int Protocol.max_frame_default
     & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let request_deadline_arg =
  let doc =
    "Cap every request's wall-clock budget at $(docv) milliseconds \
     (0 = requests choose their own).  Expiry degrades the request to \
     its best-so-far result, exactly like the batch $(b,--deadline)."
  in
  Arg.(value & opt int 0 & info [ "request-deadline" ] ~docv:"MS" ~doc)

let drain_ms_arg =
  let doc =
    "On SIGTERM/SIGINT, grace period before in-flight requests are \
     deadline-cancelled (they finish degraded); 0 waits for natural \
     completion."
  in
  Arg.(value & opt int 0 & info [ "drain-ms" ] ~docv:"MS" ~doc)

let read_timeout_arg =
  let doc = "Per-wait stall bound while reading a request frame, seconds." in
  Arg.(value & opt float Server.default_config.Server.read_timeout_s
     & info [ "read-timeout" ] ~docv:"S" ~doc)

let daemon socket workers config queue_bound max_frame request_deadline drain_ms
    read_timeout panel_cache obs =
  C.with_obs ~prog obs @@ fun _ ->
  C.with_panel_store panel_cache @@ fun cache ->
  Server.run
    {
      Server.socket;
      workers;
      jobs = config.Flow.Config.jobs;
      queue_bound;
      max_frame;
      request_deadline_ms = request_deadline;
      drain_ms;
      read_timeout_s = read_timeout;
      cache;
    };
  C.exit_ok

let daemon_cmd =
  let doc = "Run the routing daemon (drains gracefully on SIGTERM/SIGINT)" in
  Cmd.v
    (Cmd.info "daemon" ~doc)
    Term.(
      const daemon $ socket_arg $ workers_arg $ C.flow_term C.[ Jobs ]
      $ queue_bound_arg $ max_frame_arg $ request_deadline_arg $ drain_ms_arg
      $ read_timeout_arg $ C.panel_cache_term
      $ C.obs_term C.Sinks.[ Metrics ])

(* ---------------- client: route ---------------- *)

let kind_arg =
  let doc = "Flow to run remotely: 'id-no', 'isino' or 'gsino'." in
  Arg.(value
     & opt (enum C.kind_names) Flow.Gsino
     & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let timeout_arg =
  let doc = "Give up waiting for the daemon's response after $(docv) seconds \
             (0 = wait forever)." in
  Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"S" ~doc)

(* The sink flag a response artifact is written to. *)
let sink_kind = function
  | Protocol.Report -> C.Sinks.Report
  | Protocol.Metrics -> C.Sinks.Metrics
  | Protocol.Journal -> C.Sinks.Journal
  | Protocol.Trace -> C.Sinks.Trace

let finding_is_error line =
  match String.split_on_char ' ' line with
  | _code :: sev :: _ -> sev = "E"
  | _ :: [] | [] -> false

(* A reply other than the one [request] expects: a framed error is
   printed as the daemon coded it and answered with the exit code the
   batch CLI would have used; any other kind is an internal failure
   (GSL0022, exit 5). *)
let other_reply ~pretty ~request = function
  | Protocol.Err { gsl; exit_code; message; cls = _ } ->
      C.print_failure ~pretty (Diag.make ~code:gsl Diag.Error message);
      exit_code
  | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Result _ ->
      Error.raise_
        (Error.Worker_crash
           { site = prog; msg = "unexpected response kind to a " ^ request })

let route socket timeout src config rate kind pretty obs =
  C.guarded ~pretty ~obs ~prog @@ fun out ->
  let netlist = C.netlist Tech.default src in
  let sinks = obs.C.sinks in
  let artifacts =
    List.filter
      (fun a -> C.Sinks.get sinks (sink_kind a) <> None)
      [ Protocol.Report; Protocol.Metrics; Protocol.Journal; Protocol.Trace ]
  in
  let { Flow.Config.router; budgeting; seed; deadline_ms; _ } = config in
  let options =
    { Protocol.kind; router; budgeting; seed; rate; deadline_ms; artifacts }
  in
  let timeout_s = if timeout > 0.0 then Some timeout else None in
  let response =
    Client.request ?timeout_s socket
      (Protocol.Route { netlist = Io.to_string netlist; options })
  in
  match response with
  | Protocol.Result { status; summary; findings; artifacts } ->
      (* response artifacts go straight to their sinks: they are the
         daemon's bytes, not this process's registries, so they must not
         pass through the with_obs flush *)
      List.iter
        (fun (name, contents) ->
          Option.bind (Protocol.artifact_of_name name) (fun a ->
              C.Sinks.get sinks (sink_kind a))
          |> Option.iter (fun s -> Eda_obs.Artifact.write s contents))
        artifacts;
      List.iter (fun line -> Format.fprintf out "%s@." line) findings;
      Format.fprintf out "gsino_serve: %s: %s@." status summary;
      if List.exists finding_is_error findings then C.exit_findings
      else C.exit_ok
  | (Protocol.Err _ | Protocol.Pong | Protocol.Stats_reply _) as reply ->
      other_reply ~pretty ~request:"route request" reply

let route_cmd =
  let doc = "Route one netlist via the daemon (batch-CLI-compatible output)" in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      const route $ socket_arg $ timeout_arg
      $ C.source_term
          ~netlist:"Route FILE (gsino-netlist v1) instead of a generated circuit."
          ~scale:0.02 ()
      $ C.flow_term C.[ Seed; Router; Budgeting; Deadline ]
      $ C.rate_arg $ kind_arg $ C.pretty_arg
      $ C.obs_term C.Sinks.[ Trace; Metrics; Journal; Report ])

(* ---------------- client: ping / stats ---------------- *)

let ping socket timeout obs =
  C.guarded ~obs ~prog @@ fun _ ->
  let timeout_s = if timeout > 0.0 then Some timeout else None in
  match Client.request ?timeout_s socket Protocol.Ping with
  | Protocol.Pong ->
      print_endline "pong";
      C.exit_ok
  | (Protocol.Err _ | Protocol.Stats_reply _ | Protocol.Result _) as reply ->
      other_reply ~pretty:false ~request:"ping" reply

let ping_cmd =
  let doc = "Liveness-probe the daemon" in
  Cmd.v
    (Cmd.info "ping" ~doc)
    Term.(const ping $ socket_arg $ timeout_arg $ C.obs_term [])

let print_stats (s : Protocol.stats) =
  Printf.printf "uptime_s: %.1f\n" s.Protocol.uptime_s;
  Printf.printf "served: %d\n" s.Protocol.served;
  Printf.printf "errors: %d\n" s.Protocol.errors;
  Printf.printf "disconnects: %d\n" s.Protocol.disconnects;
  List.iter
    (fun (reason, n) -> Printf.printf "rejected{%s}: %d\n" reason n)
    s.Protocol.rejected;
  Printf.printf "queue_depth: %d\n" s.Protocol.queue_depth;
  Printf.printf "active: %d\n" s.Protocol.active;
  Printf.printf "workers: %d\n" s.Protocol.workers;
  Printf.printf "jobs: %d\n" s.Protocol.jobs;
  Printf.printf "cache_len: %d\n" s.Protocol.cache_len;
  Printf.printf "draining: %b\n" s.Protocol.draining

let stats socket timeout json obs =
  C.guarded ~obs ~prog @@ fun _ ->
  let timeout_s = if timeout > 0.0 then Some timeout else None in
  match Client.request ?timeout_s socket Protocol.Stats with
  | Protocol.Stats_reply s ->
      (if json then
         print_endline
           (Eda_obs.Json.to_string
              (Protocol.response_to_json (Protocol.Stats_reply s)))
       else print_stats s);
      C.exit_ok
  | (Protocol.Err _ | Protocol.Pong | Protocol.Result _) as reply ->
      other_reply ~pretty:false ~request:"stats request" reply

let stats_cmd =
  let doc = "Print the daemon's health counters" in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(
      const stats $ socket_arg $ timeout_arg
      $ Arg.(value & flag & info [ "json" ] ~doc:"Raw gsino-serve-v1 JSON.")
      $ C.obs_term [])

let cmd =
  let doc = "Routing as a service: daemon and thin client" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The daemon serves concurrent GSINO routing requests over a \
         Unix-domain socket with per-request fault isolation: a malformed \
         frame, an oversized request, a router failure, an injected fault \
         or an expired deadline degrades only that request — the daemon \
         keeps serving.  Admission is bounded (typed 'overloaded' rejects), \
         disconnected clients cancel their in-flight work, and \
         SIGTERM/SIGINT drains gracefully: stop accepting, finish what is \
         running, save the $(b,--panel-cache) store, exit 0.";
      `P
        "The client subcommands speak the gsino-serve-v1 framed protocol; \
         $(b,route) mirrors $(b,gsino_run lint)'s flags and output, with \
         the flow executed by the daemon and, with $(b,--panel-cache), \
         against its shared panel store.";
    ]
  in
  Cmd.group (Cmd.info "gsino_serve" ~version:"1.0.0" ~doc ~man)
    [ daemon_cmd; route_cmd; ping_cmd; stats_cmd ]

let () = exit (Cmd.eval' cmd)
