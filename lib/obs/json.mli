(** Minimal JSON tree, printer, parser and typed readers.

    Just enough for the observability exports ({!Metrics.to_json},
    {!Trace.to_chrome_json}) and for the [gsino-*-v1] readers (metrics
    snapshots, journals, the diff policy, serve frames) without pulling
    a JSON dependency into the build.  The printer always emits valid
    JSON (strings are escaped, non-finite floats are rendered as [null],
    as Chrome's trace importer expects); the parser accepts the JSON
    grammar of RFC 8259 — numbers included, so [+1], [01], [.5] and [1.]
    are errors — minus numbers that overflow ([1e999] would be [inf]) and
    nesting deeper than {!max_depth}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [to_buffer b j] — append the rendering of [j] to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** [write_file path j] — write [j] followed by a newline. *)
val write_file : string -> t -> unit

(** Deepest container nesting {!of_string} accepts (512): far above
    any gsino document (5 levels), low enough that a hostile input
    cannot make the recursive parser exhaust the stack or the heap. *)
val max_depth : int

(** [of_string s] — parse one JSON value; [Error msg] names the offending
    byte offset.  Trailing whitespace is allowed, trailing garbage is
    not, and an array or object nested more than {!max_depth} levels
    deep is an error.  [\uXXXX] escapes must be exactly four hex digits; surrogate
    pairs combine into one astral code point (a lone surrogate keeps its
    3-byte encoding). *)
val of_string : string -> (t, string) result

(** [read_file path] — {!of_string} on the file's whole contents;
    [Error] on I/O failure too. *)
val read_file : string -> (t, string) result

(** Object field lookup; [None] on non-objects or missing keys. *)
val member : string -> t -> t option

(** {1 Typed readers}

    The [gsino-*-v1] decoders are written against these readers.  Each
    takes [what], a name for the value being read, and raises
    {!Decode_error} with a message that starts with it
    (["options.seed: expected an integer"]); {!decode} turns exactly
    that exception into [Error], so a decoder built only from them
    returns [Ok] or [Error] on any input and raises nothing else. *)

exception Decode_error of string

(** [fail fmt ...] — raise {!Decode_error} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** [decode f x] — [Ok (f x)], or [Error msg] when [f] raises
    [Decode_error msg]. *)
val decode : ('a -> 'b) -> 'a -> ('b, string) result

val str : string -> t -> string
val int : string -> t -> int

(** An [Int] or a [Float], as a float. *)
val num : string -> t -> float

val bool : string -> t -> bool

(** [list what item j] — a list, every element read by [item what]. *)
val list : string -> (string -> t -> 'a) -> t -> 'a list

(** An object's fields in document order, repeated keys included. *)
val obj : string -> t -> (string * t) list

(** [dict what value j] — an object used as a string-keyed map: fields
    sorted by key, each value read by [value (what ^ "." ^ key)].  A key
    that appears twice is an error. *)
val dict : string -> (string -> t -> 'a) -> t -> (string * 'a) list

(** [field what j key] — the required field [key] of object [j]. *)
val field : string -> t -> string -> t

(** [schema want j] — [j]'s ["schema"] field must be the string [want]. *)
val schema : string -> t -> unit
