(** Attribution journal: a low-overhead, domain-safe structured event log
    that records dimension-keyed cost events — which nets, regions and
    panels the flow spent its work on ([gsino-journal-v1] JSONL).

    Events are aggregates (one per net / region / panel), never per-inner-
    loop-step; recording when the journal is disabled is a single atomic
    load.  Like {!Metrics}, the journal is sharded per domain: each domain
    buffers its own events, worker shards are {!drain}ed inside the pool
    job and folded back by the coordinator with {!absorb} in slot order,
    and the export applies a canonical stable sort by [(ev, dim)] — so a
    [--jobs N] run produces the same journal as [--jobs 1] (modulo the
    [_us] timing payloads).

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

(** Start buffering events (and register the [journal.events] counter).
    Call on the coordinator before any worker domain is spawned. *)
val enable : unit -> unit

(** Stop recording and discard the calling domain's buffer. *)
val disable : unit -> unit

val enabled : unit -> bool

(** [record ev dim ~data ~outcome] — append one event to the calling
    domain's shard.  A no-op (one atomic load) when disabled.  [dim] keys
    must be unique; both key lists are normalised to sorted order. *)
val record :
  ?data:(string * float) list -> ?outcome:string ->
  string -> (string * string) list -> unit

(** {1 Sharding} — same contract as {!Metrics.absorb}: workers [drain]
    after finishing a stolen section, the coordinator [absorb]s the shards
    one at a time in slot order. *)

(** Take and clear the calling domain's buffered events, emission order. *)
val drain : unit -> event list

(** Append a drained worker shard to the calling domain's buffer. *)
val absorb : event list -> unit

(** Clear the calling domain's buffer. *)
val clear : unit -> unit

(** {1 Export} *)

(** Canonical view of the calling domain's buffer: stable-sorted by
    [(ev, dim)], so per-key emission order survives but cross-domain
    interleaving does not. *)
val events : unit -> event list

(** Events as [gsino-journal-v1] JSONL: a schema header line, then one
    JSON object per event (what {!output}/{!write_file} emit; the serve
    daemon frames this string into responses). *)
val to_string : event list -> string

(** Write events as [gsino-journal-v1] JSONL: a schema header line, then
    one JSON object per event. *)
val output : out_channel -> event list -> unit

val write_file : string -> event list -> unit

(** {1 Loading} *)

val read_channel : in_channel -> (event list, string) result

(** [load path] — read a journal file ([-] reads stdin). *)
val load : string -> (event list, string) result

(** {1 Folding} — the aggregation [gsino_explain] and the HTML report
    drill down with. *)

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
end
