(** The routing daemon: a Unix-domain-socket server running the GSINO
    flow for concurrent clients, with per-request fault isolation.

    Lifecycle: {!start} binds the socket and spawns one accept domain
    plus [workers] request domains (each owning an {!Eda_exec} pool of
    [jobs] workers and a private metrics/journal/trace context);
    {!drain} (async-signal-safe) stops admission; {!wait} blocks until
    every in-flight request has finished or timed out, joins the
    domains and unlinks the socket.  {!run} wires SIGTERM/SIGINT to
    {!drain} and does all of it.  The panel store is the caller's:
    [gsino_serve daemon] loads its [--panel-cache] store before {!run}
    and saves it after.  Without a store each request memoizes in a
    cache of its own.  The daemon keeps its last preparation
    ({!Gsino.Flow.record_prepare}) with the netlist text and router it
    was made for; a route request on the same text and router replays it
    instead of running {!Gsino.Flow.prepare}'s two routings, and any
    other replaces it.

    Isolation invariants (tested in [test_serve] and the CI serve gate):
    - any per-request failure — parse error, router panic, injected
      [serve.request] fault, expired deadline, malformed or oversized
      frame — produces a framed typed error (or a degraded result) on
      that connection only; the daemon keeps serving;
    - admission is bounded: beyond [queue_bound] queued requests,
      clients get a typed [overloaded] reject (GSL0031) instead of an
      unbounded queue;
    - a client that disconnects mid-request cancels that request's
      deadline cooperatively; the flow degrades and the slot frees;
    - request metrics/journal/trace exports are byte-comparable to the
      batch CLI's (each request records into a zeroed copy of the
      start-up metrics registry; the [serve.*] series belong to the
      daemon, not to requests). *)

type config = {
  socket : string;  (** path to bind; stale files are unlinked *)
  workers : int;  (** request domains (min 1) *)
  jobs : int;  (** [Eda_exec] pool size per request domain (min 1) *)
  queue_bound : int;  (** admitted-but-unstarted request cap *)
  max_frame : int;  (** request frame size bound *)
  request_deadline_ms : int;
      (** cap on any request's deadline; 0 = requests choose freely *)
  drain_ms : int;
      (** grace after {!drain} before in-flight deadlines are tripped;
          0 = wait for natural completion *)
  read_timeout_s : float;  (** per-wait stall bound reading a request *)
  cache : Eda_sino.Cache.t option;
      (** the panel store every request shares; [None] = none, each
          request's flow memoizes in a cache of its own *)
}

(** [gsino.sock], 2 workers, 1 job each, queue bound 16, 64 MiB frames,
    no deadline cap, no drain grace, 10 s read timeout, no panel
    store. *)
val default_config : config

type t

val start : config -> t

(** Stop admitting work.  One atomic store — safe from a signal
    handler. *)
val drain : t -> unit

val draining : t -> bool

(** Daemon health as served to [stats] requests. *)
val stats : t -> Protocol.stats

(** Block until drained (call {!drain} first or from elsewhere), then
    tear down: join domains, unlink the socket, publish the
    daemon-lifetime [serve.*] metrics. *)
val wait : t -> unit

(** Route SIGTERM/SIGINT to {!drain}, then {!start} and {!wait}.  The
    handlers are in place before the socket is bound, so a signal that
    follows the first answered request always drains. *)
val run : config -> unit
