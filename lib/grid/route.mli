(** A global route for one net: a set of region-graph edges forming a tree
    that connects all the net's pin regions.

    Track accounting follows the paper's model: a net that has any segment
    of direction [d] inside region [R] occupies exactly one [d]-track of
    [R]; the segment's *length* inside [R] (needed by the LSK model) is
    half a gcell per incident edge (an edge runs center-to-center across
    the shared boundary). *)

type t

(** [of_edges grid ~net edges] builds a route; edge ids must be valid.
    Duplicates are removed. *)
val of_edges : Grid.t -> net:int -> int list -> t

val net : t -> int
val edges : t -> int array
val num_edges : t -> int

(** Total wire length in gcell units (1 edge = 1 gcell pitch). *)
val length_gcells : t -> float

(** Total wire length in µm given the region pitch. *)
val length_um : t -> gcell_um:float -> float

(** [segments grid t dir] lists [(region_id, length_gcells)] for every
    region where the net uses a [dir] track. *)
val segments : Grid.t -> t -> Dir.t -> (int * float) list

(** [occupied grid t] lists [(region_id, dir)] pairs, deduplicated: the
    [H] regions in ascending order, then the [V] ones. *)
val occupied : Grid.t -> t -> (int * Dir.t) list

(** {2 Slots}

    A slot is one (region, direction) track pool as an int:
    [slot grid r H = r] and [slot grid r V = num_regions + r], so flat
    per-slot arrays of [num_slots grid] entries replace tables keyed by
    [(region_id, dir)]. *)

val num_slots : Grid.t -> int
val slot : Grid.t -> int -> Dir.t -> int

(** [iter_slots grid t f] applies [f] to the slot of both ends of every
    edge of [t], in edge order, allocating nothing itself: a slot comes
    once per route edge incident to it, so callers that need each slot
    once deduplicate (the distinct slots are exactly [occupied]'s
    pairs). *)
val iter_slots : Grid.t -> t -> (int -> unit) -> unit

(** [connects grid t pins] — do the route edges (plus shared regions) link
    all pin regions together? A pin-only net in a single region with no
    edges is connected by definition. *)
val connects : Grid.t -> t -> Eda_geom.Point.t list -> bool

(** [is_tree grid t] — the edge set is acyclic (|E| = |touched regions| -
    #components). *)
val is_tree : Grid.t -> t -> bool

(** [path_edges grid t ~source ~sink] is the unique tree path (edge ids)
    from [source]'s region to [sink]'s region — what the per-sink LSK sum
    walks.  Empty when the two share a region.  Raises [Not_found] if the
    route does not connect them. *)
val path_edges :
  Grid.t -> t -> source:Eda_geom.Point.t -> sink:Eda_geom.Point.t -> int list

(** [path_length grid t ~source ~sink] = [List.length (path_edges ...)] in
    gcells.  Raises [Not_found] if the route does not connect them. *)
val path_length : Grid.t -> t -> source:Eda_geom.Point.t -> sink:Eda_geom.Point.t -> int

val pp : Format.formatter -> t -> unit
