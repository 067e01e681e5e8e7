(** Per-phase GC telemetry.

    {!phase} samples [Gc.minor_words], [Gc.counters] and
    [Gc.quick_stat] around a phase body and publishes the deltas as
    [gc.*] series labeled [("phase", name)], making allocation pressure
    per flow phase visible in every exported metrics snapshot:

    - [gc.minor_words], [gc.promoted_words], [gc.major_words] — gauges,
      {e accumulated} across the runs of the process (like
      [flow.phase_seconds]), in words.
    - [gc.minor_collections], [gc.major_collections], [gc.compactions]
      — counters, likewise cumulative.
    - [gc.heap_words] — gauge, {e set} to the major-heap size when the
      phase ended (last-run value).

    None of the three triggers a collection and each costs nanoseconds,
    so the probe is always on.  On OCaml 5 the counters are the
    {e calling domain's} view: allocation done by [Eda_exec]
    worker domains inside a parallel section is not attributed here —
    per-domain work shows up in the [exec.*] series instead.  A
    sequential seeded run allocates deterministically, so the word
    deltas are reproducible; across [--jobs] values they are not, and
    the CI determinism gate excludes the [gc.] prefix. *)

(** [phase name f] — run [f], charging GC deltas to [name].  Nesting is
    legal; an inner phase's allocation is charged to both (the probe
    reads global counters, it does not build a tree).  Re-raises
    whatever [f] raises after recording the deltas. *)
val phase : string -> (unit -> 'a) -> 'a
