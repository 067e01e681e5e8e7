(** Span self-time profiler.

    Folds the {!Trace} ring buffer into an aggregated per-span-name
    profile: how often each span ran, its inclusive (total) time, its
    {e self} time — total minus the time spent in child spans — and the
    p95/max of its per-call durations.  Self time is what a flame graph's
    widest leaf shows: the span where the cycles were actually burnt,
    with the enclosing phases' umbrella spans deflated by exactly the
    time their children account for.

    The fold consumes {!Trace.paired_events}, so a wrapped ring degrades
    gracefully: spans whose begin event was evicted simply do not
    contribute (check [trace.dropped_spans]), and spans still open when
    the profile is taken are ignored.  Nothing here records anything —
    profiling a run costs only the tracing already enabled for it, and
    with tracing disabled every function returns the empty profile. *)

type row = {
  name : string;
  calls : int;
  total_us : float;  (** sum of per-call inclusive durations *)
  self_us : float;  (** total minus time attributed to child spans *)
  p95_us : float;  (** 95th percentile of per-call inclusive durations *)
  max_us : float;
}

(** [of_events evs] — fold a begin/end event stream (oldest first) into
    rows, sorted by self time, largest first.  Orphaned end events and
    unclosed begin events contribute nothing. *)
val of_events : Trace.event list -> row list

(** The profile of the current trace buffer
    ([of_events (Trace.paired_events ())]); [[]] when tracing is
    disabled. *)
val current : unit -> row list

(** Share of the summed self time covered by the top [n] rows, in
    [0..1]; 1 when the profile is empty.  The CI acceptance check for
    instrumentation coverage. *)
val top_share : int -> row list -> float

(** [to_text ?top rows] — fixed-width table of the [top] (default 10)
    rows by self time: calls, total, self, self%%, p95, max. *)
val to_text : ?top:int -> row list -> string

(** [gsino-profile-v1]: [{"schema", "total_us", "spans": [{"name",
    "calls", "total_us", "self_us", "p95_us", "max_us"}]}]. *)
val to_json : row list -> Json.t

(** Publish the profile into the {!Metrics} registry as [prof.calls],
    [prof.total_us] and [prof.self_us] gauges labeled
    [("span", name)] (set, not accumulated — re-exporting replaces).
    These series are volatile wall-clock data; the CI regression policy
    excludes the [prof.] prefix from gating. *)
val export_metrics : row list -> unit
