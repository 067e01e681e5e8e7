(** Regeneration of the paper's evaluation (§4, Tables 1–3) on the
    synthetic IBM circuits, with the published numbers alongside for
    comparison.  See EXPERIMENTS.md for the recorded paper-vs-measured
    discussion. *)

(** All three flows on one circuit at one sensitivity rate. *)
type circuit_run = {
  profile : Eda_netlist.Generator.profile;
  rate : float;
  idno : Flow.result;
  isino : Flow.result;
  gsino : Flow.result;
}

type suite = { scale : float; seed : int; runs : circuit_run list }

(** Paper reference values (ibm01–ibm06). *)
module Paper : sig
  (** [violations name rate] — Table 1 percentage (e.g. 14.60). *)
  val violations : string -> float -> float option

  (** [avg_wl name] — Table 2 ID+NO average wire length, µm. *)
  val avg_wl : string -> float option

  (** [wl_overhead name rate] — Table 2 GSINO increase, %. *)
  val wl_overhead : string -> float -> float option

  (** [area_overhead name rate flow] — Table 3 increase, %;
      [flow] is [`Isino] or [`Gsino]. *)
  val area_overhead : string -> float -> [ `Isino | `Gsino ] -> float option
end

(** [run_circuit ?tech ?jobs ~scale ~seed profile rates] — prepare the
    circuit once (shared grid and conventional base routes) and run the
    three flows at each rate, on a [jobs]-domain pool (default 1).
    [store] is a caller-owned panel cache every run shares (as
    [Flow.run ~cache]); without it each run memoizes in its own. *)
val run_circuit :
  ?tech:Tech.t ->
  ?jobs:int ->
  ?store:Eda_sino.Cache.t ->
  scale:float ->
  seed:int ->
  Eda_netlist.Generator.profile ->
  float list ->
  circuit_run list

(** [run_suite ?tech ?profiles ?rates ?jobs ~scale ~seed ()] — the full
    evaluation (default: all six circuits, rates 0.3 and 0.5). *)
val run_suite :
  ?tech:Tech.t ->
  ?profiles:Eda_netlist.Generator.profile list ->
  ?rates:float list ->
  ?jobs:int ->
  ?store:Eda_sino.Cache.t ->
  scale:float ->
  seed:int ->
  unit ->
  suite

(** The three tables, formatted like the paper's, with paper values in
    brackets. *)
val table1 : Format.formatter -> suite -> unit

val table2 : Format.formatter -> suite -> unit
val table3 : Format.formatter -> suite -> unit

(** Residual crosstalk violations of iSINO/GSINO (the paper's claim is
    zero for both) and Phase III statistics. *)
val violations_summary : Format.formatter -> suite -> unit

(** Self-audit: run {!Flow.check} on every flow of every run and print
    the error/warning counts, so the suite output always carries the
    static-analysis verdict alongside the paper tables. *)
val lint_summary : Format.formatter -> suite -> unit

(** Per-phase wall-clock time; the paper notes ID routing dominates (§5). *)
val timing_summary : Format.formatter -> suite -> unit

(** [metrics_summary fmt snap] — the per-phase observability table: every
    registered {!Eda_obs.Metrics} instrument, grouped by the flow phase
    its name prefix instruments (Phase I [budget]/[id_router]/[nc_router],
    Phase II [phase2]/[sino], Phase III [refine], plus the [flow] phase
    timers).  Printed next to {!lint_summary} by [gsino_run] and the
    bench so every evaluation carries its measurement substrate. *)
val metrics_summary : Format.formatter -> Eda_obs.Metrics.snapshot -> unit
