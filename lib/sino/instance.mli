(** A SINO problem instance: the net segments sharing one routing region
    and direction, their pairwise sensitivities, and the inductive bound
    [Kth] each segment must satisfy (paper Formulation 1, restricted to a
    region — the sub-problem Phase II solves).

    An instance is its global net ids and its packed {!content}: each
    Kth's 64 bits, then one bit per sensitivity pair.  That is the one
    form every module holds (the panel cache's entries included): 20
    words for a 7-net panel. *)

type t

(** [make ~nets ~kth ~sensitive] — [nets] are global net ids, [kth.(i)] is
    the bound of [nets.(i)], and [sensitive gi gj] is the global
    sensitivity predicate (its restriction to the instance is packed and
    symmetrized). *)
val make : nets:int array -> kth:float array -> sensitive:(int -> int -> bool) -> t

(** Number of net segments. *)
val size : t -> int

(** Global id of local net [i]. *)
val net_id : t -> int -> int

(** [kth t i] — the local net's coupling bound.  Raises
    [Invalid_argument] when [i] is not a local net, as {!sens} does. *)
val kth : t -> int -> float

(** [with_kth t i v] — functional update of one bound (Phase III tightens
    and relaxes bounds region-locally). *)
val with_kth : t -> int -> float -> t

(** [sens t i j] — local sensitivity, [false] on the diagonal. *)
val sens : t -> int -> int -> bool

(** [sensitivity t i] — the paper's S_i: the fraction of the other
    segments in the region sensitive to [i] (0 when alone). *)
val sensitivity : t -> int -> float

(** [sensitivities t] — all S_i. *)
val sensitivities : t -> float array

(** [signature t] — canonical content signature (16 hex chars): net
    count + sensitivity matrix up to permutation + Kth bounds bucketed in
    ~10% steps.  Net-permuted instances share a signature; an edge flip
    or a >~10% bound change produces a different one.  It heads the
    {!Cache} key, and the journal stamps it on every panel event so
    duplicate-panel recurrence is measurable. *)
val signature : t -> string

(** [wl_colors t] — each net's final Weisfeiler–Leman colour (62 bits):
    the colour classes {!signature} digests and {!canonicalize} sorts by.
    Hashed in native ints, bit-equal to the 64-bit FNV-1a fold they are
    defined by (DESIGN §10). *)
val wl_colors : t -> int array

(** A canonical representative of the instance's content class: the nets
    relabeled [0..n-1] by sorted (WL colour, exact Kth bits), with the
    witnessing permutation and the {!signature} (computed from the same
    WL pass, so asking for both costs one refinement). *)
type canon = {
  inst : t;  (** canonical relabeling; its net ids are [0..n-1] *)
  perm : int array;
      (** [perm.(c)] = original local index at canonical position [c] *)
  signature : string;
}

(** [canonicalize t] — permutation-equivalent instances with
    discriminating WL colours (in particular, all exact duplicates)
    canonicalize to content-equal instances; solving the canonical form
    and mapping local indices through [perm] turns the solver into a
    function of panel {e content}, which is what the panel cache and the
    cross-run determinism argument rest on (DESIGN §10). *)
val canonicalize : t -> canon

(** [equal_content a b] — same size, bit-exact [kth] and identical
    sensitivity matrix; global net ids are ignored.  The cache's on-hit
    verification: [signature] collisions cannot pass this.  It is
    [String.equal] on the two {!content}s. *)
val equal_content : t -> t -> bool

(** [content t] — the packed form [t] is held in (each Kth's bits, then
    one bit per sensitivity pair):
    [String.equal (content a) (content b)] iff [equal_content a b].  The
    panel cache keys its entries' verification by it. *)
val content : t -> string

(** [of_content s] — the instance [s] packs, with net ids [0..n-1].
    Raises [Invalid_argument] on a string of a length [content] never
    returns; [s] is otherwise taken as {!content} returned it. *)
val of_content : string -> t

(** [digest_ints a] — the 64-bit FNV-1a fold {!signature} uses, over the
    ints of [a], as 16 hex chars.  The solver keys warm re-solves by the
    digest of the warm slots. *)
val digest_ints : int array -> string

val pp : Format.formatter -> t -> unit
