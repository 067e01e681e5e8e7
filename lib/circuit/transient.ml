module M = Eda_util.Matrix

type result = { times : float array; data : float array array }

(* Voltage of [node] in the state vector [st] (node 0 is ground). *)
let[@inline] node_v st node = if node = 0 then 0.0 else st.(node - 1)

(* Unknown ordering: node voltages 1..N (ground dropped), then inductor
   currents, then source currents. *)
let run c ~dt ~t_end ~probes =
  if dt <= 0.0 || t_end <= dt then invalid_arg "Transient.run: bad time range";
  if probes = [] then invalid_arg "Transient.run: no probes";
  let elems = Mna.elements c in
  List.iter
    (function
      | Mna.V (_, _, w, _) ->
          if Float.abs (Waveform.initial w) > 1e-12 then
            invalid_arg "Transient.run: sources must start at 0"
      | Mna.R _ | Mna.C _ | Mna.L _ | Mna.K _ -> ())
    elems;
  let n_nodes = Mna.num_nodes c in
  let n_l = Mna.num_inductors c in
  let n_v = Mna.num_vsources c in
  let size = n_nodes + n_l + n_v in
  if size = 0 then invalid_arg "Transient.run: empty circuit";
  let vrow n = n - 1 in
  let lrow i = n_nodes + i in
  let srow i = n_nodes + n_l + i in
  let a = M.create size size in
  let stamp_g n1 n2 g =
    if n1 > 0 then M.add_to a (vrow n1) (vrow n1) g;
    if n2 > 0 then M.add_to a (vrow n2) (vrow n2) g;
    if n1 > 0 && n2 > 0 then begin
      M.add_to a (vrow n1) (vrow n2) (-.g);
      M.add_to a (vrow n2) (vrow n1) (-.g)
    end
  in
  (* the inductance matrix's non-zero entries: row [i] holds columns
     [kcol.(kptr.(i)) .. kcol.(kptr.(i + 1) - 1)], ascending *)
  let kptr, kcol, kval = M.nonzero_rows (Mna.inductance_matrix c) in
  let two_over_h = 2.0 /. dt in
  (* per-step element tables, in element order: capacitors as
     (a, b, companion conductance), inductors as (a, b, index), sources
     as (waveform, index) *)
  let caps =
    Array.of_list
      (List.filter_map
         (function
           | Mna.C (x, y, cv) -> Some (x, y, two_over_h *. cv)
           | Mna.R _ | Mna.L _ | Mna.K _ | Mna.V _ -> None)
         elems)
  in
  let inds =
    Array.of_list
      (List.filter_map
         (function
           | Mna.L (x, y, _, i) -> Some (x, y, i)
           | Mna.R _ | Mna.C _ | Mna.K _ | Mna.V _ -> None)
         elems)
  in
  let srcs =
    Array.of_list
      (List.filter_map
         (function
           | Mna.V (_, _, w, i) -> Some (w, i)
           | Mna.R _ | Mna.C _ | Mna.L _ | Mna.K _ -> None)
         elems)
  in
  List.iter
    (function
      | Mna.R (x, y, r) -> stamp_g x y (1.0 /. r)
      | Mna.C (x, y, cv) -> stamp_g x y (two_over_h *. cv)
      | Mna.L (x, y, _, i) ->
          (* branch current in KCL *)
          if x > 0 then M.add_to a (vrow x) (lrow i) 1.0;
          if y > 0 then M.add_to a (vrow y) (lrow i) (-1.0);
          (* branch voltage equation *)
          if x > 0 then M.add_to a (lrow i) (vrow x) 1.0;
          if y > 0 then M.add_to a (lrow i) (vrow y) (-1.0);
          for p = kptr.(i) to kptr.(i + 1) - 1 do
            M.add_to a (lrow i) (lrow kcol.(p)) (-.two_over_h *. kval.(p))
          done
      | Mna.K _ -> ()
      | Mna.V (x, y, _, i) ->
          if x > 0 then M.add_to a (vrow x) (srow i) 1.0;
          if y > 0 then M.add_to a (vrow y) (srow i) (-1.0);
          if x > 0 then M.add_to a (srow i) (vrow x) 1.0;
          if y > 0 then M.add_to a (srow i) (vrow y) (-1.0))
    elems;
  Eda_guard.Fault.point "matrix.lu";
  let lu = M.lu_factor a in
  let steps = int_of_float (Float.ceil (t_end /. dt)) in
  (* [x] is the previous step's state, [x'] the new one *)
  let x = Array.make size 0.0 and x' = Array.make size 0.0 in
  let cap_i = Array.make (Array.length caps) 0.0 in
  let probe_arr = Array.of_list probes in
  let n_p = Array.length probe_arr in
  let times = Array.make (steps + 1) 0.0 in
  let data = Array.map (fun _ -> Array.make (steps + 1) 0.0) probe_arr in
  for p = 0 to n_p - 1 do
    data.(p).(0) <- node_v x probe_arr.(p)
  done;
  let rhs = Array.make size 0.0 in
  for step = 1 to steps do
    let t = float_of_int step *. dt in
    Array.fill rhs 0 size 0.0;
    (* capacitor companion sources from previous state *)
    for ci = 0 to Array.length caps - 1 do
      let nx, ny, geq = caps.(ci) in
      let v_prev = node_v x nx -. node_v x ny in
      let ieq = (geq *. v_prev) +. cap_i.(ci) in
      if nx > 0 then rhs.(vrow nx) <- rhs.(vrow nx) +. ieq;
      if ny > 0 then rhs.(vrow ny) <- rhs.(vrow ny) -. ieq
    done;
    (* inductor branch equations *)
    for j = 0 to Array.length inds - 1 do
      let nx, ny, i = inds.(j) in
      let v_prev = node_v x nx -. node_v x ny in
      let flux = ref 0.0 in
      for p = kptr.(i) to kptr.(i + 1) - 1 do
        flux := !flux +. (kval.(p) *. x.(lrow kcol.(p)))
      done;
      rhs.(lrow i) <- -.v_prev -. (two_over_h *. !flux)
    done;
    for j = 0 to Array.length srcs - 1 do
      let w, i = srcs.(j) in
      rhs.(srow i) <- Waveform.value w t
    done;
    M.lu_solve_into lu rhs x';
    x'.(0) <- Eda_guard.Fault.corrupt "matrix.lu" x'.(0);
    (* A NaN/Inf here would otherwise propagate through the companion
       state and surface downstream as a garbage noise figure; fail at
       the source with the step that produced it. *)
    for i = 0 to size - 1 do
      if not (Float.is_finite x'.(i)) then
        Eda_guard.Error.raise_
          (Eda_guard.Error.Nonfinite
             {
               site = "matrix.lu";
               what = Printf.sprintf "unknown %d at t=%.4e s" i t;
             })
    done;
    (* update capacitor currents: i_n = Geq v_n - Ieq(prev) *)
    for ci = 0 to Array.length caps - 1 do
      let nx, ny, geq = caps.(ci) in
      let v_prev = node_v x nx -. node_v x ny in
      let ieq = (geq *. v_prev) +. cap_i.(ci) in
      let v_now = node_v x' nx -. node_v x' ny in
      cap_i.(ci) <- (geq *. v_now) -. ieq
    done;
    Array.blit x' 0 x 0 size;
    times.(step) <- t;
    for p = 0 to n_p - 1 do
      data.(p).(step) <- node_v x probe_arr.(p)
    done
  done;
  { times; data }

let peak_abs r p =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 r.data.(p)

let value_at r p t =
  let n = Array.length r.times in
  if t <= r.times.(0) then r.data.(p).(0)
  else if t >= r.times.(n - 1) then r.data.(p).(n - 1)
  else begin
    let i = ref 0 in
    while r.times.(!i + 1) < t do
      incr i
    done;
    let t0 = r.times.(!i) and t1 = r.times.(!i + 1) in
    let y0 = r.data.(p).(!i) and y1 = r.data.(p).(!i + 1) in
    y0 +. ((t -. t0) /. (t1 -. t0) *. (y1 -. y0))
  end

let crossing_time r p ~level =
  let n = Array.length r.times in
  let rec go i =
    if i >= n then None
    else if r.data.(p).(i) >= level then
      if i = 0 then Some r.times.(0)
      else begin
        let y0 = r.data.(p).(i - 1) and y1 = r.data.(p).(i) in
        let t0 = r.times.(i - 1) and t1 = r.times.(i) in
        if y1 = y0 then Some t1
        else Some (t0 +. ((level -. y0) /. (y1 -. y0) *. (t1 -. t0)))
      end
    else go (i + 1)
  in
  go 0

let num_steps r = Array.length r.times - 1
