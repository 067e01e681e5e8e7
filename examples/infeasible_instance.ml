(* Infeasible instance: build a routing problem the static analyzer can
   prove unroutable before any router runs, and show the proof.

   Two independent infeasibilities are planted:

   - capacity: twelve full-width nets on a single-row grid must all
     cross every column boundary, but each region only offers six
     horizontal tracks (GSL0024 — a counting argument that holds for
     any routing);
   - crosstalk: all pairs are mutually sensitive and the nets are long,
     so the uniform Phase-I partition hands every net a Kth below
     k1^2 * shield_block — the coupling it would receive from its
     nearest aggressor even in a fully shielded layout (GSL0026).

   Run with:  dune exec examples/infeasible_instance.exe *)
open Gsino
module Point = Eda_geom.Point
module Net = Eda_netlist.Net
module Netlist = Eda_netlist.Netlist
module Sensitivity = Eda_netlist.Sensitivity
module Grid = Eda_grid.Grid
module Diag = Eda_check.Diag
module Analyze = Eda_analyze.Analyze

let () =
  let tech = Tech.default in
  let w = 16 and nets = 12 and hcap = 6 in
  let netlist =
    Netlist.make ~name:"infeasible-demo" ~grid_w:w ~grid_h:1 ~gcell_um:2000.0
      (Array.init nets (fun id ->
           Net.make ~id
             ~source:{ Point.x = 0; y = 0 }
             ~sinks:[| { Point.x = w - 1; y = 0 } |]))
  in
  let grid = Grid.make ~w ~h:1 ~hcap ~vcap:hcap in
  let sensitivity = Sensitivity.make ~seed:1 ~rate:1.0 in
  let t = Analyze.run (Flow.analyze_config tech) ~grid ~sensitivity netlist in

  Format.printf "%a@." Netlist.pp_summary netlist;
  Format.printf "%a@.@." Grid.pp grid;
  Format.printf "%a@.@." Analyze.pp_summary t;

  (* one representative finding per code, then the tally *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if not (Hashtbl.mem seen d.Diag.code) then begin
        Hashtbl.add seen d.Diag.code ();
        Format.printf "%s@." (Diag.to_line d)
      end)
    t.Analyze.findings;
  Format.printf "@.%d findings total; every error above is a proof — no@."
    (List.length t.Analyze.findings);
  Format.printf "router, ordering or shielding heuristic can satisfy this@.";
  Format.printf "instance.  gsino_run audit rejects it (exit 1) before any@.";
  Format.printf "routing; the flow's --audit pre-pass logs it and degrades.@."
