(** Deterministic fault-injection harness.

    Production code is sprinkled with cheap named {e sites} —
    [point "phase2.solve"], [corrupt "matrix.lu" v] — that are inert
    (one atomic load) unless a matching fault spec is installed, either
    programmatically ({!set}) or from the [GSINO_FAULTS] environment
    variable ({!init_from_env}).  An active site then probabilistically
    raises a typed {!Error.Worker_crash}, sleeps, or corrupts a value to
    NaN, drawing from a per-site seeded RNG so sequential runs replay the
    exact same injection sequence.

    Spec syntax (comma-separated): [site=mode[@prob][#seed]] where mode
    is [raise], [nan] or [delay:MS]; [prob] defaults to [1.0], [seed] to
    a site-derived constant.  Example:
    [GSINO_FAULTS="phase2.solve=raise@0.5#42,matrix.lu=nan"].

    Registered sites ({!registered}, the only ones a spec string may
    name): [io.load], [phase2.solve], [refine.resolve], [matrix.lu]
    (the circuit simulator's LU solves, which only [gsino_run table]
    runs from the command line),
    [exec.worker], and [serve.request] (fires inside the daemon's
    per-request guard, proving request isolation: the request gets a
    framed GSL0022 error, the daemon keeps serving).
    [raise]/[delay] act at
    {!point} sites, [nan] only where a {!corrupt} call wraps a value
    ([matrix.lu]); a mode installed at a site that never performs the
    matching action simply stays silent.

    Installation is coordinator-only and must happen before worker
    domains start (the CLIs do it at startup); firing is safe from any
    domain.  Every injection bumps [guard.injected{site}]. *)

type mode =
  | Raise  (** raise [Error (Worker_crash {site; _})] *)
  | Delay of int  (** sleep this many milliseconds *)
  | Corrupt  (** turn the wrapped value into NaN *)

type spec = { site : string; mode : mode; prob : float; seed : int }

(** ["GSINO_FAULTS"]. *)
val env_var : string

(** The registered sites, sorted: the ones the program fires. *)
val registered : string list

(** Parse a comma-separated spec string; [Error msg] on the first bad
    entry.  A site outside {!registered} is an error that names the
    registered sites, so a mistyped site cannot silently inject
    nothing. *)
val parse : string -> (spec list, string) result

(** Install specs (replacing any previous configuration).  Any site
    name is accepted, so tests can install sites of their own. *)
val set : spec list -> unit

(** Remove all faults; sites become inert again. *)
val clear : unit -> unit

(** Configure from [GSINO_FAULTS]; unset/empty clears and succeeds. *)
val init_from_env : unit -> (unit, string) result

(** Any faults installed? *)
val active : unit -> bool

(** Sites with an installed spec, sorted. *)
val sites : unit -> string list

(** Execution-point site: may raise or delay per the installed spec. *)
val point : string -> unit

(** Value site: [corrupt site v] is [v], or NaN when a [nan] fault
    fires. *)
val corrupt : string -> float -> float
