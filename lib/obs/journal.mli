(** Attribution journal: a structured event log that records
    dimension-keyed cost events — which nets, regions and panels the
    flow spent its work on ([gsino-journal-v1] JSONL).

    Events are aggregates (one per net / region / panel), never per-inner-
    loop-step.  Like {!Trace}, the journal is domain-local: a domain
    records only after it calls {!enable}, into a buffer of its own, and
    {!record} on any other domain is a no-op.  The flows record every
    event on the domain that coordinates them — a parallel section hands
    its payloads back to the coordinator, which records them after the
    section — and the export applies a canonical stable sort by
    [(ev, dim)], so a [--jobs N] run produces the same journal as
    [--jobs 1] (modulo the [_us] timing payloads and the [cache] dim).

    Event vocabulary (see DESIGN §9).  Each event of a kind carries
    exactly these [dim] and [data] keys; a parenthesized dim is optional.
    The [cache] dim is the panel-cache disposition (hit, miss or stored)
    of a [Min_area] solve that went through a panel cache.
    - [net.budget]      dim [net]; data [kth]
    - [net.route]       dim [net]; data [pops deletions reweights essential];
                        outcome [routed|direct|empty]
    - [region.reweight] dim [region dir]; data [reweights]
    - [panel.solve]     dim [region dir sig members (cache)]; data
                        [nets time_us shields];
                        outcome [feasible|degraded|infeasible]
    - [panel.resolve]   dim [region dir sig net pass (cache)]; data
                        [time_us shields]; outcome [feasible|infeasible].
                        Refinement pass 2 writes one per probed grant
                        prefix, whose net dim names the prefix's last
                        granted net.
    - [net.refine]      dim [net pass]; data [resolves]; outcome
                        [fixed|gave_up] *)

type event = {
  ev : string;  (** event kind, e.g. ["panel.solve"] *)
  dim : (string * string) list;  (** identity labels, sorted by key *)
  data : (string * float) list;  (** numeric payload, sorted by key *)
  outcome : string option;
}

(** {1 Recording} *)

(** Start a fresh journal on the calling domain (and register the
    [journal.events] counter in its current metrics registry). *)
val enable : unit -> unit

(** Stop recording on the calling domain and discard its events. *)
val disable : unit -> unit

(** Has the calling domain enabled the journal? *)
val enabled : unit -> bool

(** [record ev dim ~data ~outcome] — append one event to the calling
    domain's journal and count it in [journal.events]; a no-op on a
    domain that has not enabled it.  [dim] keys must be unique; both key
    lists are normalised to sorted order. *)
val record :
  ?data:(string * float) list -> ?outcome:string ->
  string -> (string * string) list -> unit

(** Discard the calling domain's events; recording stays enabled. *)
val clear : unit -> unit

(** [capture f] — run [f] with a private journal on the calling domain
    and return its result with the events [f] recorded, in recording
    order.  The private journal records whether or not the caller's is
    enabled, and counts nothing in [journal.events]: {!replay} counts
    the events where it re-records them.  The caller's journal, enabled
    or not and with its events, is restored when [f] returns or
    raises. *)
val capture : (unit -> 'a) -> 'a * event list

(** [replay evs] — append captured events to the calling domain's
    journal, in order, and count them in [journal.events], exactly as
    recording them one by one would; a no-op on a domain that has not
    enabled the journal. *)
val replay : event list -> unit

(** {1 Export} *)

(** Canonical view of the calling domain's events: stable-sorted by
    [(ev, dim)], so per-key emission order survives.  Empty when the
    journal is not enabled. *)
val events : unit -> event list

(** Events as [gsino-journal-v1] JSONL: a schema header line, then one
    JSON object per event ({!Artifact.journal} renders the calling
    domain's events with it). *)
val to_string : event list -> string

(** {1 Loading} — [Error] names the line and the field at fault for
    any unreadable input: malformed JSON, a missing or foreign schema
    header, a field of the wrong type, or a [dim] or [data] key that
    appears twice in one event. *)

(** [of_string text] — decode a whole [gsino-journal-v1] document. *)
val of_string : string -> (event list, string) result

(** [load path] — read a journal file ([-] reads stdin). *)
val load : string -> (event list, string) result

(** {1 Folding} — the aggregation [gsino_run explain] and the HTML report
    drill down with; both rank nets and panels with the same
    {!Agg.top_nets} and {!Agg.top_panels}. *)

val dim_value : event -> string -> string option
val data_value : event -> string -> float option

(** [filter_dim ~key ~value evs] — events whose [dim] binds [key] to
    [value]. *)
val filter_dim : key:string -> value:string -> event list -> event list

module Agg : sig
  type row = {
    key : string;  (** the grouped dimension value *)
    count : int;  (** events in the group *)
    data : (string * float) list;  (** pointwise sums, sorted by key *)
    outcomes : (string * int) list;  (** outcome tallies, sorted by key *)
  }

  (** [by_dim key evs] — group events carrying dimension [key] by its
      value and sum their payloads; rows sorted by [key]. *)
  val by_dim : string -> event list -> row list

  (** [datum row name] — summed payload field, 0 when absent. *)
  val datum : row -> string -> float

  (** [top ~by ~k rows] — the [k] largest rows by the summed field [by]
      (ties broken by key for determinism). *)
  val top : by:string -> k:int -> row list -> row list

  (** [top_nets ~k evs] — the [k] nets with the most route churn: the
      [net.route] events grouped by [net], ranked by summed
      [reweights]. *)
  val top_nets : k:int -> event list -> row list

  (** [panel_events evs] — the [panel.solve] and [panel.resolve] events,
      each with a synthesized [panel] dim ["region/dir"] so a panel's
      solve and its re-solves group together. *)
  val panel_events : event list -> event list

  (** [top_panels ~k panels] — the [k] panels with the most SINO time:
      {!panel_events} grouped by [panel], ranked by summed [time_us]. *)
  val top_panels : k:int -> event list -> row list
end
