(** Span tracing with Chrome-trace export.

    Nestable spans over the monotonic {!Clock} (microseconds since
    {!enable}; immune to NTP steps), recorded into a fixed-capacity ring
    buffer of begin/end/instant events.  Disabled by default: until {!enable} is called, {!span} is a
    bool test plus a direct call of its thunk — no event, no timestamp,
    no allocation — so leaving instrumentation in the hot paths costs
    nothing in production runs ({!timed_span} additionally reads the
    clock twice, because its callers need the duration regardless).

    {!to_chrome_json} renders the buffer in the Chrome
    Trace Event format (JSON object with a ["traceEvents"] array of
    ["B"]/["E"]/["i"] events, timestamps in µs), loadable by
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}.

    Domain-local: the ring (and the enabled flag) lives in domain-local
    storage, so each domain that calls {!enable} records into — and
    exports from — its own buffer.  On a domain that never enabled (an
    [Eda_exec] worker) {!span}/{!instant} still run their thunk but
    record nothing, so traced code can be fanned out without racing any
    buffer; per-domain work shows up in the sharded [exec.*] metrics
    instead.  A long-lived server gives each request an isolated trace
    context by enabling/disabling on the domain serving it. *)

type args = (string * string) list

type phase = B | E | I

type event = {
  name : string;
  ph : phase;
  ts_us : float;  (** relative to {!enable}; non-decreasing *)
  args : args;
}

(** [enable ?capacity ()] — start recording (clears any previous buffer).
    When more than [capacity] (default 65536) events are recorded the
    oldest are overwritten; see {!dropped}. *)
val enable : ?capacity:int -> unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [span name f] — run [f] inside a [name] span.  The closing event is
    emitted even when [f] raises.  When disabled this is exactly [f ()]. *)
val span : string -> (unit -> 'a) -> 'a

(** [span_args name args f] — as {!span}, with begin-event arguments. *)
val span_args : string -> args -> (unit -> 'a) -> 'a

(** [timed_span name f] — [span], plus the monotonic-clock seconds [f]
    took.  The duration is measured (and returned) even when tracing is
    disabled. *)
val timed_span : string -> (unit -> 'a) -> 'a * float

(** A zero-duration marker event. *)
val instant : ?args:args -> string -> unit

(** Current span nesting depth (0 at top level). *)
val depth : unit -> int

(** Buffered events, oldest first.  Begin/end events balance unless the
    ring wrapped (check {!dropped}) or spans are still open. *)
val events : unit -> event list

(** {!events} with orphaned end events removed: when the ring wraps, a
    span's begin event can be evicted while its end event survives, and
    such an unmatched ["E"] corrupts the stack-based pairing every trace
    viewer performs.  This is the view {!to_chrome_json} exports and
    {!Prof} folds; begin events whose end is still pending are kept
    (viewers render them as running spans). *)
val paired_events : unit -> event list

(** Events of any phase overwritten since {!enable}. *)
val dropped : unit -> int

(** Spans lost to ring wraparound since {!enable} — begin events that
    were overwritten, orphaning their end events.  Mirrored by the
    [trace.dropped_spans] {!Metrics} counter (registered by {!enable},
    cumulative across the process), so exported metrics snapshots record
    whether the trace ring ever lost a span. *)
val dropped_spans : unit -> int

val clear : unit -> unit

val to_chrome_json : unit -> Json.t
