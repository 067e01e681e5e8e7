type args = (string * string) list

type phase = B | E | I

type event = { name : string; ph : phase; ts_us : float; args : args }

type state = {
  buf : event array;
  capacity : int;
  m_dropped : Metrics.counter;
  mutable next : int;  (** total events ever recorded *)
  mutable t0_ns : int64;  (** monotonic origin (Clock.now_ns at enable) *)
  mutable last_us : float;  (** non-decreasing clamp *)
  mutable depth : int;
  mutable stack : string list;  (** open span names, innermost first *)
  mutable dropped_spans : int;  (** B events evicted by ring wrap *)
}

let dummy_event = { name = ""; ph = I; ts_us = 0.0; args = [] }

(* The ring buffer is domain-local: only a domain that called [enable]
   records, into its own ring.  Worker domains spawned by Eda_exec never
   enable, so their span bookkeeping stays a no-op — per-domain work is
   accounted in the sharded [exec.*] metrics instead.  The serve daemon's
   request workers each enable/disable their own ring, giving every
   request an isolated trace context. *)
let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () = Domain.DLS.get state_key

let active () = !(state ())

let enabled () = active () <> None

let enable ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.enable: non-positive capacity";
  (* Ring overwrites surface in the metrics registry too, so an exported
     gsino-metrics-v1 snapshot carries the evidence that the trace is (or
     is not) complete; CI asserts this counter is zero.  The counter
     counts dropped *spans* (evicted begin events) — the unit the name
     promises — matching [dropped_spans ()]; [dropped ()] counts raw
     evicted events of any phase.  Registered at [enable] so instrumented
     runs always export it, even at zero (registration is idempotent). *)
  state ()
  := Some
       {
         buf = Array.make capacity dummy_event;
         capacity;
         m_dropped = Metrics.counter "trace.dropped_spans";
         next = 0;
         t0_ns = Clock.now_ns ();
         last_us = 0.0;
         depth = 0;
         stack = [];
         dropped_spans = 0;
       }

let disable () = state () := None

let clear () =
  match active () with None -> () | Some s -> enable ~capacity:s.capacity ()

(* Microseconds since [enable] on the monotonic clock, clamped
   non-decreasing (the clamp is belt-and-braces: CLOCK_MONOTONIC already
   never steps backwards, but the gettimeofday fallback can). *)
let now_us s =
  let t = Int64.to_float (Int64.sub (Clock.now_ns ()) s.t0_ns) /. 1e3 in
  let t = if t > s.last_us then t else s.last_us in
  s.last_us <- t;
  t

let record s ev =
  (if s.next >= s.capacity then begin
     (* the ring wrapped: this write evicts the oldest buffered event.
        An evicted B orphans its E — that is one whole span lost from the
        export, and what the dropped_spans accounting counts. *)
     let evicted = s.buf.(s.next mod s.capacity) in
     match evicted.ph with
     | B ->
         s.dropped_spans <- s.dropped_spans + 1;
         Metrics.incr s.m_dropped
     | E | I -> ()
   end);
  s.buf.(s.next mod s.capacity) <- ev;
  s.next <- s.next + 1

let begin_span s name args =
  record s { name; ph = B; ts_us = now_us s; args };
  s.depth <- s.depth + 1;
  s.stack <- name :: s.stack

let end_span s =
  match s.stack with
  | [] -> () (* already balanced; nothing to close *)
  | name :: rest ->
      s.stack <- rest;
      s.depth <- s.depth - 1;
      record s { name; ph = E; ts_us = now_us s; args = [] }

let span_args name args f =
  match active () with
  | None -> f ()
  | Some s ->
      begin_span s name args;
      Fun.protect ~finally:(fun () -> end_span s) f

let span name f =
  match active () with None -> f () | Some _ -> span_args name [] f

(* Durations come from the monotonic clock: these feed
   flow.phase_seconds and the bench stage tables, where an NTP step
   through a wall-clock interval would fabricate a regression. *)
let timed_span name f =
  let t0 = Clock.now_s () in
  let v = span name f in
  (v, Clock.elapsed_s t0)

let instant ?(args = []) name =
  match active () with
  | None -> ()
  | Some s -> record s { name; ph = I; ts_us = now_us s; args }

let depth () = match active () with None -> 0 | Some s -> s.depth

let dropped () =
  match active () with None -> 0 | Some s -> max 0 (s.next - s.capacity)

let dropped_spans () =
  match active () with None -> 0 | Some s -> s.dropped_spans

let events () =
  match active () with
  | None -> []
  | Some s ->
      let n = min s.next s.capacity in
      let first = s.next - n in
      List.init n (fun i -> s.buf.((first + i) mod s.capacity))

(* Pair-safe view of the buffer: when the ring wrapped, a span's B event
   may have been evicted while its E survived.  Such an orphaned E —
   recognisable as an end event arriving at nesting depth 0 within the
   window — would corrupt the stack-based B/E pairing every trace viewer
   performs, so it is removed here.  Unclosed B events (spans still open,
   or whose E is yet to come) are kept: viewers render them as running
   spans, which is accurate. *)
let paired_events () =
  let depth = ref 0 in
  List.filter
    (fun ev ->
      match ev.ph with
      | B ->
          incr depth;
          true
      | E ->
          if !depth > 0 then begin
            decr depth;
            true
          end
          else false (* orphan: begin event evicted by the ring *)
      | I -> true)
    (events ())

let ph_string = function B -> "B" | E -> "E" | I -> "i"

let event_json ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("ph", Json.Str (ph_string ev.ph));
      ("ts", Json.Float ev.ts_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
    ]
  in
  let base = match ev.ph with I -> base @ [ ("s", Json.Str "t") ] | B | E -> base in
  match ev.args with
  | [] -> Json.Obj base
  | args ->
      Json.Obj
        (base @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])

let to_chrome_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (paired_events ())));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("tool", Json.Str "gsino");
            ("droppedEvents", Json.Int (dropped ()));
            ("droppedSpans", Json.Int (dropped_spans ()));
          ] );
    ]
