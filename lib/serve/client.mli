(** Thin client for the [gsino-serve-v1] protocol: one request per
    connection.

    Failures are typed: an unreachable socket, a mid-read disconnect or
    a reader-side frame reject raise {!Eda_guard.Error.Error} (an [Io]
    or [Frame] error), so CLI callers funnel them through the standard
    exit-code mapping. *)

(** [connect path] — connect to the daemon socket.  Raises a typed [Io]
    error (GSL0032, exit 7) when the daemon is unreachable. *)
val connect : string -> Unix.file_descr

(** [call ?timeout_s fd req] — send one request, read the one response.
    [timeout_s] bounds each wait for response bytes. *)
val call : ?timeout_s:float -> Unix.file_descr -> Protocol.request -> Protocol.response

(** [request ?timeout_s path req] — {!connect}, {!call}, close. *)
val request : ?timeout_s:float -> string -> Protocol.request -> Protocol.response
