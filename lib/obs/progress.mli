(** Live progress heartbeat ([--progress]).

    Long runs are silent by default; with progress enabled the flow
    emits a rate-limited one-line heartbeat
    ([[gsino] phase=route items=1234/5600 (22%) elapsed=12.3s left=47.2s])
    so an operator watching a multi-minute route knows which phase is
    running, how far along it is, and how much deadline budget remains.

    {!tick} is designed for inner loops: disabled it is one
    domain-local read, enabled it reads the monotonic clock only every
    few dozen calls and emits at most one line per [interval_ms].  Like
    {!Trace}'s ring, the heartbeat state is domain-local: only the
    domain that called {!enable} emits, ticks from [Eda_exec] worker
    domains are no-ops, so instrumented code can be fanned out freely.

    Lines go to [stderr] (never stdout, which report sinks like
    [--out -] may own); override [emit] to capture them in tests. *)

(** [enable ?interval_ms ?emit ()] — start heartbeating on the calling
    domain (at most one line per [interval_ms], default 1000).  [emit]
    defaults to writing [stderr] with a flush. *)
val enable : ?interval_ms:int -> ?emit:(string -> unit) -> unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [set_deadline f] — install the deadline-remaining provider (e.g.
    [fun () -> Eda_guard.Deadline.remaining_ms dl]); [None] omits the
    [left=] column.  Cleared by {!enable}/{!disable}. *)
val set_deadline : (unit -> int option) -> unit

(** [phase name] — enter phase [name]: resets the item counters and
    emits a heartbeat line immediately (phase transitions are the
    events an operator must not miss, rate limit notwithstanding). *)
val phase : string -> unit

(** [tick ~items_done ()] — report progress inside the current phase.
    [items_total] (sticky once given) adds the [/total (pct%)] form.
    Rate-limited; near-free when disabled or off-domain. *)
val tick : ?items_total:int -> items_done:int -> unit -> unit
