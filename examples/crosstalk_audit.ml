(* Crosstalk audit: take a conventionally routed design and report its
   RLC noise exposure net by net — the analysis a signal-integrity team
   would run before deciding whether shield-aware routing is needed.

   Run with:  dune exec examples/crosstalk_audit.exe *)
open Gsino
module Netlist = Eda_netlist.Netlist
module Net = Eda_netlist.Net

let () =
  let tech = Tech.default in
  let netlist =
    Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.03
      ~seed:5 Eda_netlist.Generator.ibm03
  in
  let grid, routes = Flow.prepare tech netlist in
  let sensitivity = Eda_netlist.Sensitivity.make ~seed:9 ~rate:0.40 in
  let lsk_model = Tech.lsk_model tech in
  let gcell_um = netlist.Netlist.gcell_um in

  (* order the nets within each region (net ordering only — what a router
     without shield support can do) and evaluate every net's noise *)
  let budget =
    Budget.uniform ~lsk:lsk_model ~noise_v:tech.Tech.noise_bound_v ~gcell_um netlist
  in
  let phase2 =
    Phase2.solve ~grid ~routes ~kth:(Budget.kth budget) ~sensitivity
      ~keff:tech.Tech.keff ~mode:Phase2.Order_only ~seed:3 ()
  in
  let plan = Noise.plan ~grid ~phase2 ~netlist ~routes in
  let noise_of i = snd (Noise.net_worst plan ~gcell_um ~lsk_model i) in
  let noises = Array.init (Netlist.num_nets netlist) noise_of in

  (* histogram of noise in 25mV bins *)
  Format.printf "circuit: %a@." Netlist.pp_summary netlist;
  Format.printf "per-sink noise bound: %.2fV (%.0f%% of Vdd)@.@."
    tech.Tech.noise_bound_v
    (100. *. tech.Tech.noise_bound_v /. 1.05);
  let bins = 10 in
  let bin_w = 0.025 in
  let hist = Array.make bins 0 in
  Array.iter
    (fun v ->
      let b = min (bins - 1) (int_of_float (v /. bin_w)) in
      hist.(b) <- hist.(b) + 1)
    noises;
  Format.printf "noise histogram (conventionally routed, net ordering only):@.";
  Array.iteri
    (fun b n ->
      let lo = float_of_int b *. bin_w in
      let marker = if lo >= tech.Tech.noise_bound_v then " <- violating" else "" in
      Format.printf "  %.3f-%.3fV %5d %s%s@." lo (lo +. bin_w) n
        (String.make (min 60 (n / 2)) '#')
        marker)
    hist;

  (* the ten worst offenders, with the route properties that make them bad *)
  let ranked =
    Array.to_list (Array.mapi (fun i v -> (i, v)) noises)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Format.printf "@.worst nets:@.";
  Format.printf "  net    noise   length(um)  sinks  Kth-budget@.";
  List.iteri
    (fun rank (i, v) ->
      if rank < 10 then
        Format.printf "  %-5d  %.3fV  %8.0f    %d      %.3f@." i v
          (Eda_grid.Route.length_um routes.(i) ~gcell_um)
          (Array.length netlist.Netlist.nets.(i).Net.sinks)
          (Budget.kth budget i))
    ranked;
  let violating = List.length (List.filter (fun (_, v) -> v > tech.Tech.noise_bound_v) ranked) in
  Format.printf
    "@.%d of %d nets (%.1f%%) exceed the bound — the long-net tail the paper's@.\
     GSINO flow exists to fix (compare examples/quickstart.ml).@."
    violating (Netlist.num_nets netlist)
    (100. *. float_of_int violating /. float_of_int (Netlist.num_nets netlist))
