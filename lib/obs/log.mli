(** Leveled structured logging.

    A single process-wide logger with four levels and two sink formats:

    - human: [gsino: [info] message key=value ...] on a formatter
      (default stderr);
    - JSONL: one [{"level": ..., "msg": ..., "fields": {...}}] object per
      line on an output channel.

    The initial level comes from the [GSINO_LOG] environment variable
    ([debug] | [info] | [warn] | [error] | [quiet]; default [warn]), and
    [GSINO_LOG=json] / [GSINO_LOG=json:LEVEL] selects the JSONL sink —
    so library code can log unconditionally and deployments choose.  The
    CLIs' [-v]/[-q] flags override the level with {!set_level}.

    Messages below the current level are discarded after one integer
    comparison; the format arguments are never rendered.  Any domain may
    log: a message is written whole, under one lock, so lines from
    concurrent domains never interleave. *)

type level = Debug | Info | Warn | Error

(** [Quiet] disables everything, including errors. *)
type threshold = Level of level | Quiet

val set_level : threshold -> unit
val current_level : unit -> threshold

(** [level_of_string "debug"] etc.; [Error msg] on unknown names. *)
val level_of_string : string -> (threshold, string) result

val level_name : level -> string

(** [would_log lvl] — true when a message at [lvl] would be emitted. *)
val would_log : level -> bool

type sink = Human of Format.formatter | Jsonl of out_channel

val set_sink : sink -> unit

(** [logf lvl ?fields fmt ...] — emit at [lvl] with structured
    [fields]. *)
val logf :
  level -> ?fields:(string * string) list -> ('a, Format.formatter, unit) format -> 'a

val debug : ?fields:(string * string) list -> ('a, Format.formatter, unit) format -> 'a
val info : ?fields:(string * string) list -> ('a, Format.formatter, unit) format -> 'a
val warn : ?fields:(string * string) list -> ('a, Format.formatter, unit) format -> 'a
val error : ?fields:(string * string) list -> ('a, Format.formatter, unit) format -> 'a
