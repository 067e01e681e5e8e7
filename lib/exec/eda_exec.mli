(** Reusable domain pool for data-parallel loops.

    The paper's hot loops — Phase II solves an independent min-area SINO
    instance per routing region, Phase III re-audits noise per net, and
    Phase I evaluates candidate edge sets per net — are embarrassingly
    parallel.  This module fans an index range [0..n-1] out over a pool
    of persistent worker domains with chunked work-stealing, while
    keeping results {e deterministic}:

    - {b Ordered reduction.}  [parallel_map] writes result [i] into slot
      [i] of the output array regardless of which domain computed it or
      when it finished, so the merged result is identical to the
      sequential one.
    - {b Sharded metrics.}  Workers record into their own
      {!Eda_obs.Metrics} registries; at the end of each parallel section
      the shards are folded back into the coordinator's registry with
      [Metrics.absorb], in worker-index order.  Counter and histogram
      series therefore come out the same for any [jobs] value (only the
      [exec.*] per-domain series vary).  Workers never journal: a body
      that has journal payloads writes them to per-index slots, and the
      coordinator records them after the section.
    - {b Sequential bypass.}  With no pool, or a pool created with
      [jobs = 1], no domain is ever spawned and no [exec.*] metric or
      span is emitted: the call degenerates to a plain loop, so
      [jobs = 1] behavior is byte-identical to the pre-parallel code.

    Exceptions raised by the loop body are caught in the workers,
    the section drains early, and the recorded exception (the one with
    the lowest starting chunk index) is re-raised with its backtrace on
    the caller's domain after all workers have quiesced — the pool stays
    usable afterwards.

    Instrumentation (parallel sections only): an [exec.parallel] trace
    span with [section]/[items]/[jobs]/[chunk] args on the coordinator;
    the [exec.sections] counter, per-section-name [exec.section_items]
    histograms (labeled [("section", name)]), and
    [exec.imbalance] histogram (max busy / mean busy across a section's
    domains — 1.0 is perfect balance); and per-domain counters labeled
    [("domain", "<slot>")] (slot 0 is the coordinator, which also
    steals): [exec.chunks], [exec.items], [exec.steals] (chunks taken
    beyond the domain's first in a section) and [exec.domain_busy_ns]
    (monotonic-clock time spent inside the steal loop).  The per-domain
    series necessarily vary with [jobs] and with scheduling, so the CI
    determinism gate and the bench regression policy exclude the
    [exec.] prefix. *)

type t
(** A pool of [jobs - 1] persistent worker domains (plus the calling
    domain, which participates in every section). *)

val default_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, cap\]]
    (default cap 8) — the default for the CLIs' [--jobs]. *)

val create : jobs:int -> t
(** [create ~jobs] — spawn the pool.  [jobs] is clamped to at least 1;
    [jobs = 1] spawns no domains.  Call {!shutdown} when done (or use
    {!with_pool}). *)

val jobs : t -> int

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Must not be called while a
    parallel section is running. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] — {!create}, run [f], {!shutdown} (also on
    exception). *)

val parallel_iter :
  ?pool:t -> ?name:string -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_iter ?pool ?name ?chunk n body] — run [body i] for
    [i = 0..n-1].  Without a pool (or with [jobs pool = 1]) this is a
    plain ascending loop on the calling domain.  With a pool, indices
    are handed out in chunks of [chunk] (default [ceil (n / (jobs * 8))])
    through an atomic cursor that idle domains steal from.  [name]
    (default ["section"]) labels the section's [exec.section_items]
    series and trace span.  [body] must not mutate state shared across
    iterations — writes must go to per-index slots or domain-local
    (e.g. Metrics) cells.

    Nested sections, and sections entered from a domain other than the
    pool's creator, run sequentially rather than deadlocking. *)

val parallel_map :
  ?pool:t -> ?name:string -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_map ?pool ?name ?chunk n f] — [[| f 0; ...; f (n-1) |]]
    with the work distributed as in {!parallel_iter} and results placed
    in index order (deterministic ordered reduction). *)

val map_array :
  ?pool:t -> ?name:string -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ?pool f arr] — {!parallel_map} over [arr]'s indices. *)
