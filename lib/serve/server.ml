module Metrics = Eda_obs.Metrics
module Journal = Eda_obs.Journal
module Trace = Eda_obs.Trace
module Log = Eda_obs.Log
module Artifact = Eda_obs.Artifact
module Clock = Eda_obs.Clock
module Error = Eda_guard.Error
module Deadline = Eda_guard.Deadline
module Fault = Eda_guard.Fault
module Flow = Gsino.Flow
module Tech = Gsino.Tech
module Diag = Eda_check.Diag
module Io = Eda_netlist.Io
module Cache = Eda_sino.Cache

type config = {
  socket : string;
  workers : int;
  jobs : int;
  queue_bound : int;
  max_frame : int;
  request_deadline_ms : int;
  drain_ms : int;
  read_timeout_s : float;
  cache : Cache.t option;
}

let default_config =
  {
    socket = "gsino.sock";
    workers = 2;
    jobs = 1;
    queue_bound = 16;
    max_frame = Protocol.max_frame_default;
    request_deadline_ms = 0;
    drain_ms = 0;
    read_timeout_s = 10.0;
    cache = None;
  }

type job = {
  serial : int;
  fd : Unix.file_descr;
  netlist_text : string;
  options : Protocol.options;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  started_at : float;
  draining : bool Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  mutable depth : int;
  mutable served : int;
  mutable errors : int;
  mutable disconnects : int;
  rejected : (string, int) Hashtbl.t;
  mutable active : int;
  active_deadlines : (int, Deadline.t) Hashtbl.t;
  mutable next_serial : int;
  mutable accept_done : bool;
  mutable workers_live : int;
  template : Metrics.registry;
  m_queue_depth : Metrics.gauge;
  m_served : Metrics.counter;
  m_errors : Metrics.counter;
  m_disconnects : Metrics.counter;
  mutable domains : unit Domain.t list;
  mutable drain_seen_at : float option;
  mutable published : bool;
}

(* ------------------------- shared bookkeeping ------------------------ *)

let locked t f = Mutex.protect t.mu f

let count_reject t reason =
  locked t (fun () ->
      Hashtbl.replace t.rejected reason
        (1 + Option.value (Hashtbl.find_opt t.rejected reason) ~default:0))

let stats t =
  locked t (fun () ->
      {
        Protocol.uptime_s = Clock.now_s () -. t.started_at;
        served = t.served;
        errors = t.errors;
        disconnects = t.disconnects;
        rejected =
          Hashtbl.fold (fun r n acc -> (r, n) :: acc) t.rejected []
          |> List.sort compare;
        queue_depth = t.depth;
        active = t.active;
        workers = t.cfg.workers;
        jobs = t.cfg.jobs;
        cache_len = Option.fold ~none:0 ~some:Cache.length t.cfg.cache;
        draining = Atomic.get t.draining;
      })

(* ------------------------------ admission ---------------------------- *)

(* Every response write may hit a vanished peer; the reject path must
   never take the daemon down with it. *)
let try_respond fd response =
  try
    Protocol.send_response fd response;
    true
  with
  | Unix.Unix_error (_, _, _) | Sys_error _ -> false

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* Is [fd] readable within [timeout] seconds?  SIGTERM lands on any
   thread not blocking it, so a domain's select can fail with EINTR:
   that is a "not yet", never a reason for the domain to die. *)
let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ :: _, _, _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let reject t fd reason =
  count_reject t reason;
  let depth = locked t (fun () -> t.depth) in
  ignore (try_respond fd (Protocol.error_response (Error.Overload { reason; depth })));
  close_quiet fd

let reject_frame t fd e =
  count_reject t "bad-frame";
  ignore (try_respond fd (Protocol.error_response e));
  close_quiet fd

(* One connection, in the accept domain: read the single request frame
   (bounded size, bounded stall), answer ping/stats inline, admit route
   work to the queue.  Typed rejects leave here; nothing this function
   does can raise past it. *)
let handle_conn t fd =
  try
    match
      Protocol.read_frame ~max:t.cfg.max_frame ~timeout_s:t.cfg.read_timeout_s
        fd
    with
    | Protocol.Eof ->
        locked t (fun () -> t.disconnects <- t.disconnects + 1);
        close_quiet fd
    | Protocol.Reject e -> reject_frame t fd e
    | Protocol.Frame payload -> (
        match Protocol.request_of_string payload with
        | Error e -> reject_frame t fd e
        | Ok Protocol.Ping ->
            locked t (fun () -> t.served <- t.served + 1);
            ignore (try_respond fd Protocol.Pong);
            close_quiet fd
        | Ok Protocol.Stats ->
            let s = stats t in
            locked t (fun () -> t.served <- t.served + 1);
            ignore (try_respond fd (Protocol.Stats_reply s));
            close_quiet fd
        | Ok (Protocol.Route { netlist; options }) ->
            let admitted =
              locked t (fun () ->
                  if Atomic.get t.draining then `Reject "draining"
                  else if t.depth >= t.cfg.queue_bound then `Reject "queue-full"
                  else begin
                    let serial = t.next_serial in
                    t.next_serial <- serial + 1;
                    Queue.push
                      { serial; fd; netlist_text = netlist; options }
                      t.queue;
                    t.depth <- t.depth + 1;
                    Condition.signal t.cond;
                    `Admitted
                  end)
            in
            (match admitted with
            | `Admitted -> ()
            | `Reject reason -> reject t fd reason))
  with exn ->
    Log.warn
      ~fields:[ ("exn", Printexc.to_string exn) ]
      "serve: connection setup failed; dropping peer";
    locked t (fun () -> t.disconnects <- t.disconnects + 1);
    close_quiet fd

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.draining) then begin
      (if readable t.lsock 0.25 then
         match Unix.accept t.lsock with
         | fd, _ -> handle_conn t fd
         | exception Unix.Unix_error (_, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* drain sweep: peers whose connect already completed against the
     backlog get a typed "draining" reject instead of a hung socket *)
  let rec sweep () =
    if readable t.lsock 0.0 then
      match Unix.accept t.lsock with
      | fd, _ ->
          reject t fd "draining";
          sweep ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  sweep ();
  close_quiet t.lsock;
  locked t (fun () ->
      t.accept_done <- true;
      (* wake idle workers so they observe the drain *)
      Condition.broadcast t.cond)

(* -------------------------- request handling ------------------------- *)

(* Client-disconnect watcher: a sys-thread sharing the worker domain
   (preempted by the runtime tick, so it runs even while the flow is
   CPU-bound).  The protocol allows no client bytes after the request
   frame, so readability means EOF (peer closed) or garbage; EOF and
   socket errors cancel the request's deadline, which the flow observes
   at its next cooperative checkpoint.  The request's end closes the
   write end of [wake], which makes [wake] readable and returns the
   watcher at once. *)
let monitor_fd fd ~wake deadline =
  let buf = Bytes.create 1 in
  let rec loop () =
    match Unix.select [ fd; wake ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | ready, _, _ when List.mem wake ready -> ()
    | _ -> (
        match Unix.recv fd buf 0 1 [] with
        | 0 -> Deadline.cancel deadline
        | _ -> loop () (* protocol garbage; consume and keep watching *)
        | exception Unix.Unix_error (_, _, _) -> Deadline.cancel deadline)
  in
  loop ()

let effective_budget_ms t (options : Protocol.options) =
  let req = max 0 options.deadline_ms and cap = t.cfg.request_deadline_ms in
  if cap <= 0 then req else if req <= 0 then cap else min req cap

(* The route computation itself: the batch commands' Flow.run_kinds on
   the request's one kind, then Flow.check, so a served response is
   byte-comparable to the batch CLI's artifacts.  Its flow memoizes in
   the daemon's --panel-cache store when there is one, else in a cache
   of its own: the cache key holds the flow seed, so requests that
   differ only in seed share no entry. *)
let route_result t pool (job : job) deadline =
  Fault.point "serve.request";
  let { Protocol.kind; router; budgeting; seed; rate; artifacts; _ } =
    job.options
  in
  let tech = Tech.default in
  let netlist = Io.of_string job.netlist_text in
  let config =
    { Flow.Config.default with Flow.Config.router; budgeting; seed; jobs = t.cfg.jobs }
  in
  let r =
    List.hd
      (Flow.run_kinds ~pool ?cache:t.cfg.cache ~deadline config tech ~rate
         [ kind ] netlist ~f:Fun.id)
  in
  let diags = Flow.check ~tech r in
  let artifact = function
    | Protocol.Report ->
        ( "report",
          Eda_reportviz.Run_report.text ~tech ~snapshot:(Metrics.snapshot ()) r
        )
    | Protocol.Metrics -> ("metrics", Artifact.metrics ())
    | Protocol.Journal -> ("journal", Artifact.journal ())
    | Protocol.Trace -> ("trace", Artifact.trace ())
  in
  Protocol.Result
    {
      status = (if Flow.degraded r then "degraded" else "ok");
      summary = Format.asprintf "%a" Flow.pp_summary r;
      findings = List.map Diag.to_line diags;
      artifacts = List.map artifact artifacts;
    }

let handle_route t pool (job : job) =
  let deadline =
    Deadline.cancellable ~budget_ms:(effective_budget_ms t job.options) ()
  in
  locked t (fun () -> Hashtbl.replace t.active_deadlines job.serial deadline);
  let wake, wake_w = Unix.pipe ~cloexec:true () in
  let monitor = Thread.create (fun () -> monitor_fd job.fd ~wake deadline) () in
  let response =
    (* fresh per-request observability context on this domain: a zeroed
       copy of the start-up metrics registry, journal shard cleared,
       trace ring armed only when the client asked for the artifact *)
    Metrics.with_registry (Metrics.zeroed_copy t.template) @@ fun () ->
    Journal.clear ();
    if List.mem Protocol.Trace job.options.artifacts then Trace.enable ()
    else Trace.disable ();
    (* per-request guard: any failure becomes a framed typed error — the
       daemon never dies for one request *)
    try route_result t pool job deadline
    with exn ->
      Protocol.error_response (Error.classify ~site:"serve.request" exn)
  in
  Trace.disable ();
  (* stop the watcher, and close what it selects on only once it is gone *)
  close_quiet wake_w;
  Thread.join monitor;
  close_quiet wake;
  let sent = try_respond job.fd response in
  close_quiet job.fd;
  locked t (fun () ->
      Hashtbl.remove t.active_deadlines job.serial;
      t.active <- t.active - 1;
      if not sent then t.disconnects <- t.disconnects + 1
      else
        match response with
        | Protocol.Err _ -> t.errors <- t.errors + 1
        | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Result _ ->
            t.served <- t.served + 1)

let worker_loop t =
  Eda_exec.with_pool ~jobs:t.cfg.jobs @@ fun pool ->
  let next () =
    locked t (fun () ->
        let rec get () =
          if not (Queue.is_empty t.queue) then begin
            let j = Queue.pop t.queue in
            t.depth <- t.depth - 1;
            t.active <- t.active + 1;
            Some j
          end
          else if Atomic.get t.draining then None
          else begin
            Condition.wait t.cond t.mu;
            get ()
          end
        in
        get ())
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some job ->
        handle_route t pool job;
        loop ()
  in
  loop ()

(* ------------------------------ lifecycle ---------------------------- *)

(* [draining] exists before the socket does, so [run] can route signals
   to it before the first connection is possible. *)
let start_draining draining cfg =
  let cfg =
    {
      cfg with
      workers = max 1 cfg.workers;
      jobs = max 1 cfg.jobs;
      queue_bound = max 0 cfg.queue_bound;
    }
  in
  if Sys.os_type = "Unix" then
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (* Build the LSK table, the model every route request reads, before
     the socket opens, so its cost is start-up time rather than the
     first request's.  The Formula-3 fit only serves the static
     analyzer, which no request runs. *)
  ignore (Tech.lsk_model Tech.default);
  (* The journal records on any domain once enabled; enabling (and
     registering journal.events) before the template is taken makes the
     per-request instrument set match a batch `--journal` run. *)
  Journal.enable ();
  let template = Metrics.zeroed_copy (Metrics.current_registry ()) in
  (* serve.* instruments register *after* the template is taken, so
     request-scoped metrics exports carry no serve series — they are
     daemon-lifetime series, exported by the daemon itself. *)
  let m_queue_depth = Metrics.gauge "serve.queue_depth" in
  let m_served = Metrics.counter "serve.served" in
  let m_errors = Metrics.counter "serve.errors" in
  let m_disconnects = Metrics.counter "serve.disconnects" in
  (try Unix.unlink cfg.socket with Unix.Unix_error (_, _, _) -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lsock (Unix.ADDR_UNIX cfg.socket);
     Unix.listen lsock 64
   with e ->
     close_quiet lsock;
     raise e);
  let t =
    {
      cfg;
      lsock;
      started_at = Clock.now_s ();
      draining;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      depth = 0;
      served = 0;
      errors = 0;
      disconnects = 0;
      rejected = Hashtbl.create 8;
      active = 0;
      active_deadlines = Hashtbl.create 16;
      next_serial = 0;
      accept_done = false;
      workers_live = cfg.workers;
      template;
      m_queue_depth;
      m_served;
      m_errors;
      m_disconnects;
      domains = [];
      drain_seen_at = None;
      published = false;
    }
  in
  let accept_d = Domain.spawn (fun () -> accept_loop t) in
  let worker_d =
    List.init cfg.workers (fun _ ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () ->
                locked t (fun () -> t.workers_live <- t.workers_live - 1))
              (fun () -> worker_loop t)))
  in
  t.domains <- accept_d :: worker_d;
  Log.info
    ~fields:
      [
        ("socket", cfg.socket);
        ("workers", string_of_int cfg.workers);
        ("jobs", string_of_int cfg.jobs);
      ]
    "gsino_serve: listening";
  t

let start cfg = start_draining (Atomic.make false) cfg

(* Signal-handler-safe: one atomic store.  Everything that must happen
   after — waking workers, the drain grace timer — happens on the
   thread sitting in [wait]. *)
let drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining

let publish_metrics t =
  locked t (fun () ->
      if t.published then ()
      else begin
        t.published <- true;
        Metrics.set t.m_queue_depth (float_of_int t.depth);
        Metrics.add t.m_served t.served;
        Metrics.add t.m_errors t.errors;
        Metrics.add t.m_disconnects t.disconnects;
        Hashtbl.iter
          (fun reason n ->
            Metrics.add
              (Metrics.counter ~labels:[ ("reason", reason) ] "serve.rejected")
              n)
          t.rejected
      end)

let wait t =
  let rec loop () =
    (if Atomic.get t.draining then begin
       (match t.drain_seen_at with
       | None -> t.drain_seen_at <- Some (Clock.now_s ())
       | Some _ -> ());
       locked t (fun () -> Condition.broadcast t.cond);
       match t.drain_seen_at with
       | Some t0
         when t.cfg.drain_ms > 0
              && Clock.now_s () -. t0 >= float_of_int t.cfg.drain_ms /. 1000.0
         ->
           (* grace expired: trip every in-flight deadline; the requests
              finish degraded at their next checkpoint instead of being
              killed *)
           locked t (fun () ->
               Hashtbl.iter (fun _ d -> Deadline.cancel d) t.active_deadlines)
       | Some _ | None -> ()
     end);
    let finished =
      locked t (fun () -> t.accept_done && t.workers_live = 0)
    in
    if not finished then begin
      Unix.sleepf 0.05;
      loop ()
    end
  in
  loop ();
  List.iter Domain.join t.domains;
  t.domains <- [];
  (try Unix.unlink t.cfg.socket with Unix.Unix_error (_, _, _) -> ());
  publish_metrics t;
  Log.info
    ~fields:
      [
        ("served", string_of_int t.served);
        ("errors", string_of_int t.errors);
      ]
    "gsino_serve: drained"

let run cfg =
  let draining = Atomic.make false in
  if Sys.os_type = "Unix" then begin
    let handler = Sys.Signal_handle (fun _ -> Atomic.set draining true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;
  wait (start_draining draining cfg)
