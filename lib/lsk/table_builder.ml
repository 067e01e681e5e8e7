module Rng = Eda_util.Rng
module Lintable = Eda_util.Lintable
module Keff = Eda_sino.Keff
module Coupled_line = Eda_circuit.Coupled_line

type electrical = {
  r_per_m : float;
  l_per_m : float;
  c_per_m : float;
  cc_per_m : float;
  rd : float;
  cl : float;
  vdd : float;
  t_rise : float;
  t_delay : float;
  segments : int;
}

let default_electrical =
  {
    r_per_m = 30e3; (* 30 ohm/mm: wide global wire *)
    l_per_m = 6e-7; (* 0.6 nH/mm *)
    c_per_m = 2e-10; (* 0.20 pF/mm to ground *)
    cc_per_m = 1e-10; (* 0.10 pF/mm to each adjacent track *)
    rd = 30.0;
    cl = 5e-14;
    vdd = 1.05;
    t_rise = 20e-12; (* aggressive 3 GHz edge *)
    t_delay = 20e-12;
    segments = 8;
  }

let spec_of e ~keff ~length_m =
  {
    Coupled_line.length_m;
    segments = e.segments;
    r_per_m = e.r_per_m;
    l_per_m = e.l_per_m;
    c_per_m = e.c_per_m;
    cc_per_m = e.cc_per_m;
    k_adjacent = keff.Keff.k1;
  }

let drive_of e =
  {
    Coupled_line.rd = e.rd;
    cl = e.cl;
    vdd = e.vdd;
    t_delay = e.t_delay;
    t_rise = e.t_rise;
  }

let victim_keff ~keff roles victim =
  let n = Array.length roles in
  if victim < 0 || victim >= n || roles.(victim) <> Coupled_line.Victim then
    invalid_arg "Table_builder.victim_keff: not a victim";
  let total = ref 0.0 in
  let walk step =
    let shields = ref 0 and dist = ref 1 and q = ref (victim + step) in
    while !q >= 0 && !q < n && !dist <= keff.Keff.window do
      (match roles.(!q) with
      | Coupled_line.Shield -> incr shields
      | Coupled_line.Aggressor | Coupled_line.Opposing ->
          total := !total +. Keff.pair_coupling keff ~dist:!dist ~shields_between:!shields
      | Coupled_line.Victim | Coupled_line.Quiet -> ());
      q := !q + step;
      incr dist
    done
  in
  walk 1;
  walk (-1);
  !total

(* One random single-region SINO-style layout: a handful of wires around a
   victim, some switching (sensitive aggressors), some quiet, some
   shields — mirroring what min-area SINO solutions look like. *)
let random_roles rng =
  let n = Rng.int_in rng 3 8 in
  let victim = Rng.int rng n in
  Array.init n (fun i ->
      if i = victim then Coupled_line.Victim
      else begin
        let u = Rng.float rng 1.0 in
        if u < 0.50 then Coupled_line.Aggressor
        else if u < 0.72 then Coupled_line.Shield
        else Coupled_line.Quiet
      end)

let find_victim roles =
  let v = ref (-1) in
  Array.iteri (fun i r -> if r = Coupled_line.Victim && !v < 0 then v := i) roles;
  !v

let samples ?(seed = 42) ?(configs = 14)
    ?(lengths_m = [ 0.25e-3; 0.5e-3; 0.75e-3; 1.0e-3; 1.5e-3; 2.0e-3; 3.0e-3 ])
    ~keff e =
  let rng = Rng.create seed in
  let drive = drive_of e in
  let configurations =
    (* always include the canonical extremes so the table brackets well *)
    [ [| Coupled_line.Aggressor; Coupled_line.Victim |];
      [| Coupled_line.Aggressor; Coupled_line.Victim; Coupled_line.Aggressor |];
      [| Coupled_line.Aggressor; Coupled_line.Shield; Coupled_line.Victim |] ]
    @ List.init (max 0 (configs - 3)) (fun _ -> random_roles rng)
  in
  List.concat_map
    (fun roles ->
      let victim = find_victim roles in
      let k = victim_keff ~keff roles victim in
      List.map
        (fun length_m ->
          let spec = spec_of e ~keff ~length_m in
          let noise =
            List.assoc victim (Coupled_line.victim_noise spec drive roles)
          in
          let lsk = k *. (length_m *. 1e6) in
          (lsk, noise))
        lengths_m)
    configurations

let build ?(seed = 42) ?(entries = 100) ?configs ?lengths_m
    ?(keff = Keff.default) e =
  let pts = samples ~seed ?configs ?lengths_m ~keff e in
  (* anchor the origin: zero coupling or zero length gives zero noise *)
  let pts = (0.0, 0.0) :: pts in
  let table = Lintable.resample (Lintable.isotonic (Lintable.of_points pts)) entries in
  { Lsk.table; keff }
