(** The [gsino-serve-v1] wire protocol: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  Every payload object carries
    [{"schema": "gsino-serve-v1"}].  A connection carries exactly one
    request frame and one response frame; the server closes after
    responding, so a client reading to EOF never blocks on a second
    frame.

    Requests:
    - [{"kind": "ping"}] — liveness probe, answered with [pong];
    - [{"kind": "stats"}] — daemon health snapshot;
    - [{"kind": "route", "netlist": "<gsino-netlist v1 text>",
       "options": {...}}] — run the flow.  [options] mirrors
      {!Gsino.Flow.Config} where a client may choose ([flow], [router],
      [budgeting], [seed], [rate], [deadline_ms]) plus the [artifacts]
      the response should embed; [jobs] and the panel store stay server
      decisions.  [router] and [budgeting] are spelled as
      {!Gsino.Flow.routers} and {!Gsino.Flow.budgetings} spell them for
      the CLIs.  Unknown option fields are rejected, not ignored — a
      typo must not silently change a routing run.

    Responses: [pong], [stats], [result] (status ["ok"]/["degraded"],
    the one-line summary, lint findings, and the requested artifacts as
    strings), or [error] carrying the {!Eda_guard.Error} class name, GSL
    code, documented exit code and message.

    Decoding failures are typed, never exceptions: malformed JSON,
    schema/kind mismatches, oversized or truncated frames each map to an
    {!Eda_guard.Error.Frame} reject (GSL0030) the server frames back
    before closing. *)

module Error := Eda_guard.Error

val schema : string

(** 64 MiB — the default bound a reader enforces on announced frame
    lengths ({!read_frame} rejects bigger announcements without buffering
    them). *)
val max_frame_default : int

(** {1 Framing} *)

(** [write_frame fd payload] — header + payload, handling short writes.
    Raises [Unix.Unix_error] (e.g. [EPIPE]) like any socket write;
    [Error.of_exn] maps those to typed {!Eda_guard.Error.Io}. *)
val write_frame : Unix.file_descr -> string -> unit

type read_result =
  | Frame of string
  | Eof  (** peer closed cleanly before the first header byte *)
  | Reject of Error.t
      (** always a [Frame _] class: truncated, oversized, bad length, or
          stalled past [timeout_s] *)

(** [read_frame ?max ?timeout_s fd] — read one frame.  [max] (default
    {!max_frame_default}) bounds the announced length, and so what the
    call allocates: a header that announces more is rejected before any
    body buffer exists.  [timeout_s] bounds each wait for more bytes
    (absent = block forever).  I/O errors propagate as
    [Unix.Unix_error]. *)
val read_frame :
  ?max:int -> ?timeout_s:float -> Unix.file_descr -> read_result

(** {1 Vocabulary} *)

type artifact = Report | Metrics | Journal | Trace

val artifact_name : artifact -> string
val artifact_of_name : string -> artifact option

type options = {
  kind : Gsino.Flow.kind;
  router : Gsino.Flow.router;
  budgeting : Gsino.Flow.budgeting;
  seed : int;
  rate : float;
  deadline_ms : int;  (** per-request budget; 0 = server default only *)
  artifacts : artifact list;  (** artifacts to embed in the result *)
}

(** [gsino] flow, iterative deletion, uniform budgeting, seed 7, rate
    0.30, no deadline, no artifacts — the same defaults as the batch
    CLIs, so an empty [options] object routes exactly like
    [gsino_run lint -k gsino]. *)
val default_options : options

type request = Ping | Stats | Route of { netlist : string; options : options }

type stats = {
  uptime_s : float;
  served : int;  (** requests answered with a non-error response *)
  errors : int;  (** requests answered with a framed error *)
  disconnects : int;  (** clients that vanished mid-request *)
  rejected : (string * int) list;  (** admission rejects, by reason *)
  queue_depth : int;
  active : int;  (** requests currently being served *)
  workers : int;
  jobs : int;
  cache_len : int;
      (** entries in the daemon's [--panel-cache] store; 0 without one
          (each request's cache then ends with the request) *)
  draining : bool;
}

type response =
  | Pong
  | Stats_reply of stats
  | Result of {
      status : string;  (** ["ok"] or ["degraded"] *)
      summary : string;
      findings : string list;  (** lint findings, [Diag.to_line] format *)
      artifacts : (string * string) list;  (** artifact name -> contents *)
    }
  | Err of { cls : string; gsl : int; exit_code : int; message : string }

(** The framed rendering of a typed failure: class name, GSL code and
    documented exit code travel with the message, so a thin client can
    exit with the same status the batch CLI would have. *)
val error_response : Error.t -> response

(** {1 Codecs} — encoding is total; decoding returns a typed
    {!Eda_guard.Error.Frame} reject on malformed input. *)

val request_to_json : request -> Eda_obs.Json.t
val request_of_string : string -> (request, Error.t) result
val response_to_json : response -> Eda_obs.Json.t
val response_of_string : string -> (response, Error.t) result

(** [send_request] / [send_response] — encode and {!write_frame}. *)
val send_request : Unix.file_descr -> request -> unit

val send_response : Unix.file_descr -> response -> unit
