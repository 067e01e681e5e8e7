(** Metrics registries.

    Named counters, gauges and log-scale histograms, optionally
    distinguished by a small static label set (e.g. [("phase", "route")]
    or [("dir", "H")]).  Instruments register once (typically at module
    initialisation or at first use) and then mutate a single heap cell
    per event, so recording is an increment — cheap enough for the
    routers' inner loops.  Registration is idempotent: asking for an
    existing (name, labels) pair returns the same instrument; asking for
    the same pair with a different kind is a programming error
    ([Invalid_argument]).

    The registry is snapshot-based: {!snapshot} captures every
    instrument's current state immutably, {!replay} folds a snapshot
    into a registry, and {!to_json} renders the [gsino-metrics-v1]
    schema that CI and [gsino_run diff] read.

    {2 Sharding contract (multicore)}

    Instruments are process-wide; their cells live in a {!registry}
    value, one cell per instrument the registry has seen.  Every domain
    records into its {e current} registry — a fresh one of its own when
    the domain starts, swapped for the extent of a call by
    {!with_registry} — so recording is still a plain (unsynchronised)
    increment and never races, as long as a registry is current on at
    most one domain at a time.  The rules:

    - Registration is process-global and mutex-guarded: any domain may
      create any instrument at any time; (name, labels) pairs resolve to
      the same handle everywhere, and kind mismatches raise
      [Invalid_argument].  Registering an instrument, or recording
      through its handle, materialises its cell in the current registry,
      so a registered instrument exports (at zero) even if never
      recorded.
    - A recording enters another registry one way only: work is
      {!record}ed in a fresh registry, and its snapshot is {!replay}ed
      where the work belongs.  A pool worker records each section it
      takes part in; the coordinator replays the shards in slot order
      once the section ends, the way a request replays the recording
      of a prepared netlist.  A fresh registry holds only the cells its
      work touched, so a shard carries nothing from earlier sections.
      [replay] mutates only the calling domain's current registry, so
      coordinators on distinct domains (the serve daemon's request
      workers) may replay concurrently; re-entering [replay] on the
      {e same} domain (two sys-threads sharing a registry) raises
      [Invalid_argument].  [Eda_exec] does all of this automatically.
    - A long-lived process serving many requests runs each request in a
      registry of its own: [with_registry (zeroed_copy template)], where
      [template] is a {!zeroed_copy} of the start-up registry.  A
      request's snapshot then holds the start-up instrument set plus
      exactly what the request touched, as a fresh process's would;
      nothing a previous request registered or recorded can leak in.

    Everything below the snapshot layer (JSON, {!quantile}) is pure and
    safe anywhere. *)

(** Sorted, duplicate-free at registration; order given does not matter. *)
type labels = (string * string) list

type counter
type gauge
type histogram

(** {1 Registries} *)

(** The cells of one recording context. *)
type registry

(** A registry with no cell materialised. *)
val fresh_registry : unit -> registry

(** The calling domain's current registry: the one its recording,
    {!snapshot} and {!replay} act on. *)
val current_registry : unit -> registry

(** [zeroed_copy r] — a new registry holding a zero cell for every
    instrument [r] holds.  Recording or registering in the copy leaves
    [r] unchanged. *)
val zeroed_copy : registry -> registry

(** [with_registry r f] — run [f] with [r] as the calling domain's
    current registry, restoring the previous one when [f] returns or
    raises. *)
val with_registry : registry -> (unit -> 'a) -> 'a

(** {1 Registration} *)

val counter : ?labels:labels -> string -> counter
val gauge : ?labels:labels -> string -> gauge
val histogram : ?labels:labels -> string -> histogram

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit

(** [accum g v] — add [v]; gauges double as float accumulators (phase
    seconds across a suite). *)
val accum : gauge -> float -> unit

val gauge_value : gauge -> float

(** [observe h v] — record a sample.  Buckets are powers of two:
    bucket [i] counts samples in [[2^(i-16), 2^(i-15))]; values [<= 0]
    land in the underflow bucket, huge values in the overflow bucket. *)
val observe : histogram -> float -> unit

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  buckets : (int * int) list;  (** (bucket index, count), sparse, sorted *)
}

val histogram_summary : histogram -> histogram_summary

(** Mean of observed samples; 0 when empty. *)
val histogram_mean : histogram_summary -> float

(** [quantile s q] — approximate [q]-quantile ([0..1], clamped) from the
    log2 buckets: the bucket holding the rank-[q*count] sample,
    interpolated linearly inside its [[2^(i-16), 2^(i-15))] range and
    clamped to the observed min/max (so p0 = min, p100 = max exactly; the
    interior is within a factor of 2).  0 when empty. *)
val quantile : histogram_summary -> float -> float

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type snapshot

val snapshot : unit -> snapshot

(** All (name, labels, value) triples, sorted by name then labels. *)
val entries : snapshot -> (string * labels * value) list

(** [find snap ?labels name] — exact (name, labels) lookup. *)
val find : ?labels:labels -> snapshot -> string -> value option

(** [counter_total snap name] — sum of all counters called [name] across
    label sets; 0 when absent. *)
val counter_total : snapshot -> string -> int

(** [gsino-metrics-v1]: [{"schema": ..., "metrics": [{"name", "kind",
    "labels", ...}]}]. *)
val to_json : snapshot -> Json.t

(** [of_json j] — parse a [gsino-metrics-v1] document (the {!to_json}
    schema) back into a snapshot; [to_json] then [of_json] is the
    identity.  Used by [gsino_run diff] to align two exported runs. *)
val of_json : Json.t -> (snapshot, string) result

(** [read_json path] — {!of_json} on a JSON file; errors are prefixed
    with the path. *)
val read_json : string -> (snapshot, string) result

(** [replay snap] — re-record, into the current registry, what a
    snapshot of another registry recorded, as if it had been recorded
    here: counters and histograms add, a gauge takes the recorded value
    (as {!set} does), and every entry's cell is materialised, zero or
    not.  Replaying a snapshot of a fresh registry that [f] recorded
    into equals running [f] here, for an [f] that only increments
    counters, observes histograms and sets gauges.  Re-entry on one
    domain raises [Invalid_argument] (see the sharding contract
    above). *)
val replay : snapshot -> unit

(** [record f] — run [f] with a fresh registry current, restoring the
    previous one when [f] returns or raises; returns [f]'s result and
    the fresh registry's snapshot, which holds exactly the cells [f]
    touched. *)
val record : (unit -> 'a) -> 'a * snapshot
