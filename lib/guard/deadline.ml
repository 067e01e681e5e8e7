type state = {
  until : float; (* [infinity] for a cancel-only deadline *)
  budget_ms : int;
  cancelled : bool Atomic.t;
  mu : Mutex.t;
  mutable hits : string list; (* reverse chronological *)
}

type t = state option

let none = None

(* The monotonic clock: an NTP step through a wall-clock deadline would
   either fire the budget instantly (step forward) or extend it without
   bound (step back).  CLOCK_MONOTONIC cannot step, so a budget always
   measures real elapsed runtime. *)
let now = Eda_obs.Clock.now_s

let make ~budget_ms ~until =
  {
    until;
    budget_ms;
    cancelled = Atomic.make false;
    mu = Mutex.create ();
    hits = [];
  }

let start ~budget_ms =
  if budget_ms <= 0 then None
  else
    Some (make ~budget_ms ~until:(now () +. (float_of_int budget_ms /. 1000.0)))

let cancellable ?(budget_ms = 0) () =
  if budget_ms <= 0 then Some (make ~budget_ms:0 ~until:infinity)
  else Some (make ~budget_ms ~until:(now () +. (float_of_int budget_ms /. 1000.0)))

let budget_ms = function None -> 0 | Some s -> s.budget_ms
let cancel = function None -> () | Some s -> Atomic.set s.cancelled true
let cancelled = function None -> false | Some s -> Atomic.get s.cancelled

(* A cancel-only deadline never reads the clock: the ID router asks
   once per heap pop. *)
let expired = function
  | None -> false
  | Some s -> Atomic.get s.cancelled || (s.until < infinity && now () >= s.until)

let remaining_ms = function
  | None -> None
  | Some s when s.until = infinity ->
      (* cancel-only deadline: no time budget to report *)
      if Atomic.get s.cancelled then Some 0 else None
  | Some s ->
      if Atomic.get s.cancelled then Some 0
      else
        Some (max 0 (int_of_float (Float.ceil ((s.until -. now ()) *. 1000.0))))

let mark t ~phase =
  match t with
  | None -> ()
  | Some s ->
      Mutex.protect s.mu (fun () ->
          if not (List.mem phase s.hits) then begin
            s.hits <- phase :: s.hits;
            (* Registered only when a deadline actually fires, so
               deadline-free runs export a byte-identical metrics set. *)
            Eda_obs.Metrics.incr
              (Eda_obs.Metrics.counter ~labels:[ ("phase", phase) ]
                 "guard.deadline_hits")
          end)

let check t ~phase =
  if expired t then begin
    mark t ~phase;
    true
  end
  else false

let hits t =
  match t with
  | None -> []
  | Some s -> Mutex.protect s.mu (fun () -> List.rev s.hits)
