(* Child processes of the harness.  They are spawned directly (never
   through a shell or `dune exec`), reaped with wait4 so each child's
   own peak RSS and CPU time come back with its exit status, sampled by
   Calib while they run, and killed on every exit path of the harness
   ([kill_all] runs at exit). *)
module Clock = Eda_obs.Clock
module Client = Eda_serve.Client
module Protocol = Eda_serve.Protocol

external wait4_raw : int -> bool -> bool * int * int * float = "perf_wait4"
external process_cpu_s : int -> float = "perf_process_cpu"

type exit_info = {
  code : int;  (** exit status, or minus the signal number *)
  wall_s : float;
  maxrss_kb : int;
  cpu_s : float;
}

(* Where the CLIs are: _build/default/bin from the checkout root, or
   --bin DIR. *)
let bin_dir = ref "_build/default/bin"
let run_exe () = Filename.concat !bin_dir "gsino_run.exe"
let serve_exe () = Filename.concat !bin_dir "gsino_serve.exe"
let live : int list ref = ref []

let rec wait4 ?(nohang = false) pid =
  try wait4_raw pid nohang with Unix.Unix_error (Unix.EINTR, _, _) -> wait4 ~nohang pid

(* Children see the harness's environment minus every GSINO_* variable:
   GSINO_PANEL_CACHE would hand each op a warm on-disk panel store (and
   have it write one outside the checkout), GSINO_FAULTS would inject
   faults into measured ops, GSINO_LOG would change what they print. *)
let child_env =
  lazy
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"GSINO_" kv))
          (Array.to_list (Unix.environment ()))))

let spawn ~stdout ~stderr prog args =
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let out = open_out stdout in
  let err = open_out stderr in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close err)
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (Lazy.force child_env)
          Unix.stdin out err)
  in
  live := pid :: !live;
  pid

let exit_info pid ~t0 (_, code, maxrss_kb, cpu_s) =
  live := List.filter (( <> ) pid) !live;
  { code; wall_s = Clock.now_s () -. t0; maxrss_kb; cpu_s }

let reap pid ~t0 = exit_info pid ~t0 (wait4 pid)

(* Reap [pid] while Calib samples it; the samples come back with it. *)
let reap_sampled pid ~t0 =
  let cal = Calib.watch pid in
  let rec go () =
    match wait4 ~nohang:true pid with
    | (true, _, _, _) as r -> exit_info pid ~t0 r
    | false, _, _, _ ->
        Calib.tick cal;
        Unix.sleepf 0.01;
        go ()
  in
  let exit = go () in
  (exit, Calib.scale cal)

let run ~stdout ~stderr prog args =
  let t0 = Clock.now_s () in
  reap (spawn ~stdout ~stderr prog args) ~t0

(* [run], sampled: the exit and the factor that rescales its CPU time. *)
let run_sampled ~stdout ~stderr prog args =
  let t0 = Clock.now_s () in
  reap_sampled (spawn ~stdout ~stderr prog args) ~t0

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (wait4 pid) with Unix.Unix_error (_, _, _) -> ())
    !live;
  live := []

(* ---------------- scratch directory ---------------- *)

(* Everything a run writes lives under _perf/ in the checkout (sockets,
   netlists, op outputs); the per-run directory goes away at exit. *)
let root = "_perf"

let rm_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let make_scratch name =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> try rm_tree dir with Sys_error _ -> ());
  dir

(* ---------------- the serve daemon ---------------- *)

type daemon = {
  pid : int;
  socket : string;
  ready_s : float;  (** wall seconds from spawn to the first pong *)
  ready_cpu_s : float;  (** the daemon's CPU seconds by then *)
  ready_scale : float;  (** Calib's factor for them *)
}

(* Launch a fresh daemon — 2 request workers, as serve-warm runs it —
   and wait for its first pong, sampled by Calib: start-up forces every
   shared model (LSK table, Formula-3 fit) before the socket is bound,
   and routes nothing. *)
let start_daemon ~dir ~tag ~jobs =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  let t0 = Clock.now_s () in
  let pid =
    spawn ~stdout:log ~stderr:log (serve_exe ())
      [
        "daemon"; "--socket"; socket; "--workers"; "2"; "--jobs"; string_of_int jobs; "-q";
      ]
  in
  let cal = Calib.watch pid in
  let rec ping () =
    match Client.request ~timeout_s:10.0 socket Protocol.Ping with
    | Protocol.Pong -> ()
    | Protocol.Stats_reply _ | Protocol.Result _ | Protocol.Err _ ->
        failwith "daemon answered a ping with something else"
    | exception Eda_guard.Error.Error (Eda_guard.Error.Io _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, _ ->
            live := List.filter (( <> ) pid) !live;
            failwith ("daemon exited during start-up; see " ^ log));
        Calib.tick cal;
        Unix.sleepf 0.002;
        ping ()
  in
  ping ();
  let ready_s = Clock.now_s () -. t0 in
  { pid; socket; ready_s; ready_cpu_s = process_cpu_s pid; ready_scale = Calib.scale cal }

(* SIGTERM drains the daemon; its peak RSS comes back with the reap. *)
let stop_daemon d =
  let t0 = Clock.now_s () in
  Unix.kill d.pid Sys.sigterm;
  reap d.pid ~t0
