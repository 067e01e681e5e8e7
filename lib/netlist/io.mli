(** Plain-text netlist serialization, so externally produced placements
    can run through the flows and generated benchmarks can be archived.

    Format (one record per line, [#] comments ignored):

    {v
    gsino-netlist v1
    name <string>
    grid <w> <h> <gcell_um>
    net <id> <src_x> <src_y> <sink_x> <sink_y> [<sink_x> <sink_y> ...]
    v}

    Net ids must be consecutive from 0 and pins inside the grid
    (checked on load with {!Netlist.validate}). *)

(** [to_string nl] / [of_string s] — serialization round-trip. *)
val to_string : Netlist.t -> string

(** [of_string ?file s] raises [Eda_guard.Error.Error (Parse _)] — with
    the 1-based line number, the offending token and [file] when given —
    on malformed input: bad/missing records, duplicate or
    non-consecutive net ids, pins outside the declared grid, and absurd
    counts (grid dimensions, net ids, sink counts beyond any plausible
    benchmark). *)
val of_string : ?file:string -> string -> Netlist.t

(** [save path nl] / [load path] — file convenience wrappers.  [load] is
    an [io.load] fault-injection site and tags parse errors with
    [path]; a file it cannot read is a [Parse] error at line 0. *)
val save : string -> Netlist.t -> unit

val load : string -> Netlist.t
