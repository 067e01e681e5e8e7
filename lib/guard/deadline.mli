(** Cooperative wall-clock deadlines with graceful degradation.

    A deadline is started once per flow ([start ~budget_ms]) and threaded
    down to the long-running loops (ID-router rip-up, NC-router
    negotiation, SINO improvement passes, refinement).  Each loop polls
    {!expired} at a safe checkpoint — a point where stopping leaves a
    {e valid} (connected, capacity-respecting) partial result — and on
    expiry keeps its best-so-far answer instead of raising.  The phase
    records the truncation with {!mark}, which feeds both the flow
    result's degradation tags and the [guard.deadline_hits] counter.

    Degraded results stay deterministic in {e content}: a checkpoint only
    ever skips optional improvement work, never reorders it, so two runs
    that expire at different checkpoints differ in quality but each is a
    prefix of the same deterministic improvement sequence (see
    DESIGN.md).  [t = none] (or [budget_ms <= 0]) disables every check at
    a single branch's cost. *)

type t

(** No deadline: [expired] is always [false], [mark] a no-op. *)
val none : t

(** [start ~budget_ms] — deadline [budget_ms] from now; [budget_ms <= 0]
    is {!none}. *)
val start : budget_ms:int -> t

(** [cancellable ?budget_ms ()] — a deadline that can additionally be
    tripped externally with {!cancel} (client disconnect, server drain).
    Unlike {!start}, the result is never {!none}: with [budget_ms <= 0]
    (the default) it has no time budget — it only expires when
    cancelled — so a cancel checkpoint costs one atomic load.  The serve
    daemon arms one per request. *)
val cancellable : ?budget_ms:int -> unit -> t

(** [cancel t] — trip the deadline now (thread- and domain-safe,
    idempotent, signal-handler-safe: one atomic store).  After this
    {!expired} is [true] and in-flight work degrades at its next
    checkpoint exactly as on time expiry.  No-op on {!none}. *)
val cancel : t -> unit

(** Has {!cancel} been called?  (Distinguishes "client went away / drain"
    from "budget ran out" in server bookkeeping; both read as
    {!expired}.) *)
val cancelled : t -> bool

(** The budget this deadline was created with; 0 for {!none} and for
    cancel-only deadlines. *)
val budget_ms : t -> int

(** Has the budget been exhausted?  Cheap enough for inner loops. *)
val expired : t -> bool

(** Milliseconds of budget left (clamped at 0); [None] for {!none} and
    for a cancel-only deadline that has not been cancelled ([Some 0] once
    it has).  Feeds the [--progress] heartbeat's "deadline left"
    column. *)
val remaining_ms : t -> int option

(** [mark t ~phase] — record that [phase] was truncated (idempotent per
    phase; bumps [guard.deadline_hits{phase}] on first mark). *)
val mark : t -> phase:string -> unit

(** [check t ~phase] — [expired t], marking [phase] when true.  The
    one-liner for loop conditions on the coordinating domain. *)
val check : t -> phase:string -> bool

(** Phases marked so far, in first-marked order. *)
val hits : t -> string list
