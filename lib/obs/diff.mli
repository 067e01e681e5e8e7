(** Run-to-run comparison of metrics snapshots, and the policy gate that
    turns a comparison into a CI verdict.

    Two [gsino-metrics-v1] snapshots (typically {!Metrics.read_json} of a
    committed baseline and of the current run) are aligned by
    (name, labels); every series is classified as added, removed, changed
    or unchanged on its scalar summary — a counter's value, a gauge's
    value, a histogram's sample count.  A {!policy} names the guarded
    metrics and their per-metric tolerances; {!check} returns the
    breaches, which [gsino_run diff] renders and converts into a non-zero
    exit code.  See bench/regression_policy.json for the live policy. *)

(** Scalar summary of one series: counter value, gauge value, or
    histogram sample count, with the metric kind it came from. *)
type scalar = { kind : string; value : float }

type change =
  | Added of scalar  (** only in the current snapshot *)
  | Removed of scalar  (** only in the baseline *)
  | Changed of { kind : string; before : float; after : float }
  | Unchanged of scalar

type entry = { name : string; labels : Metrics.labels; change : change }

(** [diff baseline current] — one entry per series of either snapshot,
    sorted by name then labels. *)
val diff : Metrics.snapshot -> Metrics.snapshot -> entry list

val changed : entry -> bool

(** {1 Policy} *)

(** Which drift direction counts as a regression: [Up] guards increases
    only (a drop in violations is an improvement, not a breach), [Down]
    decreases only, [Any_change] both. *)
type direction = Up | Down | Any_change

(** A drift in the guarded direction is allowed if it is within [max_abs]
    {e or} within [max_rel] (fraction, 0.02 = 2%); with neither bound the
    metric must not drift at all.  Matches every label set of [metric];
    added/removed series of a guarded metric always breach, as does a
    guarded metric absent from both snapshots (stale policy). *)
type tolerance = {
  metric : string;
  max_abs : float option;
  max_rel : float option;
  direction : direction;
}

(** [exclude] is a list of series-name {e prefixes} (e.g. ["prof."],
    ["gc."], ["exec."]) whose series are volatile by nature — wall-clock
    profiles, GC deltas, pool scheduling — and are dropped from both the
    rendered diff and the gate. *)
type policy = { tolerances : tolerance list; exclude : string list }

(** Does the policy's exclude list cover this series name? *)
val excluded : policy -> string -> bool

(** Drop the entries whose name matches an [exclude] prefix. *)
val apply_exclude : policy -> entry list -> entry list

(** [gsino-diff-policy-v1]: [{"schema": ..., "exclude"?: [prefix, ...],
    "tolerances": [{"metric", "max_abs"?, "max_rel"?, "direction"?}]}];
    direction is "up" (default) | "down" | "both". *)
val policy_of_json : Json.t -> (policy, string) result

val load_policy : string -> (policy, string) result

type breach = {
  entry : entry option;  (** [None]: guarded metric found in neither snapshot *)
  tolerance : tolerance;
  reason : string;
}

val check : policy -> entry list -> breach list

(** {1 Rendering} *)

(** ["name{k=v,...}"] — the series identifier used in reports. *)
val series_name : string -> Metrics.labels -> string

(** One fixed-width delta-table row: marker (+/-/~/space), series, kind,
    before, after, delta, relative delta. *)
val pp_entry : Format.formatter -> entry -> unit

val pp_breach : Format.formatter -> breach -> unit
