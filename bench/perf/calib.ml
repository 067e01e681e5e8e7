(* Calibration of the machine's current speed.

   On a shared host an op's CPU time still moves with what the host's
   other tenants run, presumably on a shared core, cache or clock
   budget.  On the machine of README.md's tables the same op's CPU
   time varied by as much as 85% within minutes, in bursts of a few
   seconds, and the kernel's steal-time accounting saw none of it.

   So while a measured process runs, the harness pauses it every
   [every_s] (SIGSTOP), times one [slice] of this file's own code —
   sorting, hashing, list allocation and float math, like the program's
   — and resumes it (SIGCONT).  The slices sample the host's speed
   across the op, and [scale] turns the op's CPU seconds into seconds at
   the machine's quiet speed.  The slice is part of the benchmark, so a
   change to the program cannot move it.  It does not track the program
   exactly: under contention the program slows by more than the slice
   (README.md, "Steadiness"). *)

let slice () =
  let rng = Random.State.make [| 42 |] in
  let n = 20_000 in
  let a = Array.init n (fun _ -> Random.State.float rng 1.0) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Random.State.int rng 7_000) (float_of_int i)
  done;
  let l = List.init n (fun i -> (i, Random.State.float rng 1.0)) in
  let l = List.sort (fun (_, x) (_, y) -> compare x y) l in
  let f = ref 0.0 in
  for i = 1 to n * 4 do
    f := !f +. (sqrt (float_of_int i) *. exp (-.a.(i mod n)))
  done;
  !f +. a.(n / 2) +. Hashtbl.fold (fun _ v s -> s +. v) h 0.0 +. snd (List.nth l 7)

(* CPU seconds one slice takes on the machine of README.md's tables
   when its host is quiet. *)
let quiet_s = 0.015

let every_s = 0.25

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One sample: the slice's CPU seconds now. *)
let sample () =
  let t0 = cpu_s () in
  ignore (Sys.opaque_identity (slice ()));
  cpu_s () -. t0

(* The samples taken while [pid] ran. *)
type t = { pid : int; mutable next : float; mutable samples : float list }

let watch pid = { pid; next = Unix.gettimeofday () +. every_s; samples = [] }

(* Called often while [t.pid] runs: once [every_s] has passed, pause the
   process for one sample. *)
let tick t =
  let now = Unix.gettimeofday () in
  if now >= t.next then begin
    Unix.kill t.pid Sys.sigstop;
    let s = sample () in
    Unix.kill t.pid Sys.sigcont;
    t.samples <- s :: t.samples;
    t.next <- Unix.gettimeofday () +. every_s
  end

(* The factor that rescales CPU seconds measured while [t] sampled to the
   machine's quiet speed.  An op too short for a paused sample is
   rescaled by one taken right after it. *)
let scale t =
  let samples = if t.samples = [] then [ sample () ] else t.samples in
  quiet_s *. float_of_int (List.length samples) /. List.fold_left ( +. ) 0.0 samples

(* Host interference only ever adds time, so the faster half of a run's
   rescaled op costs are the ones it touched least: their mean is the
   run's estimate of an op's cost on a quiet host. *)
let faster_half_mean = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = (Array.length a + 1) / 2 in
      Array.fold_left ( +. ) 0.0 (Array.sub a 0 k) /. float_of_int k
