(** Content-addressed panel cache (ROADMAP: the foundation for
    [gsino_serve] and incremental ECO reroute).

    Entries are keyed by a string the solver builds from the canonical
    panel {!Instance.signature} plus every input that influences the
    solution (Keff parameters, flow seed, retry ladder, solve mode, and
    for warm re-solves a digest of the warm layout).  Because the WL
    signature is not a perfect canonical form, every hit is verified
    against the stored canonical instance's {!Instance.content} (the
    packed form the instance is held in, so a lookup compares two
    strings, as {!Instance.equal_content} does) and the stored warm
    slots, when present — a colliding key can cost a re-solve, never a
    wrong answer.  On top of that the solver
    cross-checks each hit against {!Bound.shield_lower_bound}; an entry
    beating a sound lower bound is provably corrupt and is dropped
    (counted in [sino.cache_bound_rejects]).

    The in-process store is a mutex-protected LRU safe to share across
    worker domains.  [save]/[load] persist it as a versioned
    [gsino-panelcache-v2] text file, [panels.v2], inside a directory (the
    CLI's [--panel-cache DIR] / [GSINO_PANEL_CACHE]).  The file's last
    line is [sum] and the hex MD5 of every byte before it, so an edited
    entry is caught even when it still parses.  A missing file loads as
    an empty cache; a file with another header (a [v1] store among
    them), a missing or wrong digest, or an entry that does not parse
    loads as an empty cache with one warning — it is a cache, losing it
    is never an error, and a damaged store never changes an answer.

    Counters: [sino.cache_hits] / [sino.cache_misses] /
    [sino.cache_stores] / [sino.cache_evictions] /
    [sino.cache_bound_rejects].  Hit/miss counts depend on which domain
    touches a duplicate panel first, so they are excluded from the
    jobs=1 ≡ jobs=4 comparisons; the solutions themselves are
    content-determined and schedule-independent (DESIGN §10). *)

type t

(** Solver-effort counter deltas recorded at solve time and replayed on
    every hit, so the cumulative [sino.*] effort series stay independent
    of the hit/miss schedule (a hit accounts for exactly the work the
    miss it replaces performed). *)
type effort = {
  instances : int;
  inserted : int;
  removed : int;
  swaps : int;
  repairs : int;
  retries : int;
}

type value = {
  slots : int array;
      (** canonical slot form of the solution: local net index, or [-1]
          for a shield *)
  effort : effort;
}

(** [create ?capacity ()] — empty cache; [capacity] (default 16384)
    bounds the entry count, evicting least-recently-used entries. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** [find t ~params ~key ~inst ?warm ?admit ()] — verified lookup: the
    stored entry must match [key], be content-equal to the canonical
    [inst], carry the same [warm] slots, satisfy [admit] (the solver
    admits an entry only when its recorded retry depth fits the
    request's budget, so retry count need not split the key space) and
    survive the {!Bound.shield_lower_bound} cross-check under
    [params]. *)
val find :
  t ->
  params:Keff.params ->
  key:string ->
  inst:Instance.t ->
  ?warm:int array ->
  ?admit:(value -> bool) ->
  unit ->
  value option

(** [store t ~key ~inst ?warm value] — insert (or refresh) an entry at
    the most-recently-used position. *)
val store : t -> key:string -> inst:Instance.t -> ?warm:int array -> value -> unit

(** [load dir] — read [dir]'s store file into a cache of the default
    capacity; a missing file is an empty cache, and one with a wrong
    header or digest or a malformed entry (a solution or warm layout that
    is not a layout of its instance, a negative effort count) is an empty
    cache plus a warning. *)
val load : string -> t

(** [save t dir] — atomically write the store file (unique per-writer
    temp file + rename), creating [dir] if needed, least-recently-used
    entries first so a later [load] reconstructs the recency order, and
    the digest line last.
    Safe under concurrent writers sharing [dir] (a draining daemon racing
    a batch CLI): each writer stages privately and the rename is
    last-writer-wins on a complete file, so concurrent [save]/[load]
    never observes a torn store and never double-counts
    [sino.cache_stores] ([save] records no metric; [load] re-inserts
    without counting). *)
val save : t -> string -> unit
