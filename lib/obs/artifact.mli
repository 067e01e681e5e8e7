(** The observability artifacts of a run, rendered to the exact bytes a
    sink receives.  This is the one rendering of each artifact: the CLIs'
    exit flush and the serve daemon's per-request responses both take
    their bytes from here, so a served artifact is byte-comparable to
    the batch CLI's.  Each renderer reads the calling domain's current
    state (trace ring, metrics registry, journal). *)

(** Chrome-trace JSON of the trace ring, newline-terminated. *)
val trace : unit -> string

(** [gsino-metrics-v1] JSON of a snapshot of the current registry,
    newline-terminated. *)
val metrics : unit -> string

(** [gsino-journal-v1] JSONL of {!Journal.events}. *)
val journal : unit -> string

(** [profile ~sink rows] — the human-readable top-10 table when [sink]
    is ["-"] (stdout), otherwise [gsino-profile-v1] JSON,
    newline-terminated. *)
val profile : sink:string -> Prof.row list -> string

(** [write sink contents] — ["-"] prints [contents] to stdout and
    flushes it; any other [sink] is a file path, created or truncated.
    A closed stdout or an unwritable path raises [Sys_error]. *)
val write : string -> string -> unit
