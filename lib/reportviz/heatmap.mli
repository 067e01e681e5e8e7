(** Per-region heatmaps over {!Gsino.Congestion_map.cells}, rendered as
    inline SVG for the run report.

    Two sequential encodings, one per {!mode}: track utilization on a
    light-to-dark blue ramp, shield counts on an orange ramp (normalised
    to the grid's maximum).  Over-capacity regions are flagged with the
    reserved status red plus a dark stroke and a spelled-out tooltip —
    never color alone.  Every cell carries an SVG [<title>] tooltip with
    its coordinates, net/shield counts, capacity and utilization; a
    legend strip sits under the grid. *)

type mode = Utilization | Shields

(** [render ~mode usage dir] — a self-contained [<svg>] fragment for one
    routing direction; grid row [height-1] (north) is drawn at the top.
    [cell_px]/[gap_px] default to 14px cells with a 2px surface gap. *)
val render :
  ?cell_px:int ->
  ?gap_px:int ->
  mode:mode ->
  Eda_grid.Usage.t ->
  Eda_grid.Dir.t ->
  string

(** [render_predicted grid demand dir] — the pre-route RUDY expected
    demand ({!Eda_analyze.Analyze.demand_map}) on the utilization encoding,
    so the report can show the analyzer's prediction side by side with
    the realized congestion of {!render}.  [demand.(r)] is the expected
    track demand of region [r]; cells where it exceeds capacity get the
    same red over-capacity status. *)
val render_predicted :
  ?cell_px:int ->
  ?gap_px:int ->
  Eda_grid.Grid.t ->
  float array ->
  Eda_grid.Dir.t ->
  string
