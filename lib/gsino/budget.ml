module Metrics = Eda_obs.Metrics
open Eda_netlist

type t = { lsk_budget : float; kth : float array }

(* Phase-I partition statistics: the Kth distribution is the paper's
   Formula (1)/(2) input, so record it per budgeting call *)
let m_partitions = Metrics.counter "budget.partitions"
let g_lsk = Metrics.gauge "budget.lsk_um_k"
let h_kth = Metrics.histogram "budget.kth"

let record t =
  Metrics.incr m_partitions;
  Metrics.set g_lsk t.lsk_budget;
  Array.iter (fun k -> Metrics.observe h_kth k) t.kth;
  if Eda_obs.Journal.enabled () then
    Array.iteri
      (fun i k ->
        Eda_obs.Journal.record "net.budget"
          [ ("net", string_of_int i) ]
          ~data:[ ("kth", k) ])
      t.kth;
  t

let uniform ~lsk ~noise_v ~gcell_um netlist =
  let budget = Eda_lsk.Lsk.lsk_bound lsk ~noise:noise_v in
  if budget <= 0.0 then invalid_arg "Budget.uniform: noise bound below table range";
  let kth =
    Array.map
      (fun net ->
        let far =
          Array.fold_left
            (fun acc sink -> max acc (Eda_geom.Point.manhattan net.Net.source sink))
            1 net.Net.sinks
        in
        budget /. (float_of_int far *. gcell_um))
      netlist.Netlist.nets
  in
  record { lsk_budget = budget; kth }

let route_aware ~lsk ~noise_v ~gcell_um ~grid ~routes netlist =
  let budget = Eda_lsk.Lsk.lsk_bound lsk ~noise:noise_v in
  if budget <= 0.0 then invalid_arg "Budget.route_aware: noise bound below table range";
  if Array.length routes <> Array.length netlist.Netlist.nets then
    invalid_arg "Budget.route_aware: route/net count mismatch";
  let kth =
    Array.mapi
      (fun i net ->
        let far =
          Array.fold_left
            (fun acc sink ->
              let l =
                try
                  Eda_grid.Route.path_length grid routes.(i)
                    ~source:net.Net.source ~sink
                with Not_found ->
                  invalid_arg "Budget.route_aware: route does not reach a sink"
              in
              max acc l)
            1 net.Net.sinks
        in
        budget /. (float_of_int far *. gcell_um))
      netlist.Netlist.nets
  in
  record { lsk_budget = budget; kth }

let kth t net =
  if net < 0 || net >= Array.length t.kth then invalid_arg "Budget.kth: bad net";
  t.kth.(net)

let pp fmt t =
  let sorted = Array.copy t.kth in
  Array.sort compare sorted;
  let n = Array.length sorted in
  Format.fprintf fmt "budget(LSK<=%.0f, Kth median %.2f, p10 %.2f, p90 %.2f)"
    t.lsk_budget
    sorted.(n / 2)
    sorted.(n / 10)
    sorted.(9 * n / 10)
