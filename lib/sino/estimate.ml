module Rng = Eda_util.Rng
module Matrix = Eda_util.Matrix
module Metrics = Eda_obs.Metrics

type coeffs = { a1 : float; a2 : float; a3 : float; a4 : float; a5 : float; a6 : float }

let features ~nns ~s =
  if Array.length s <> nns then invalid_arg "Estimate.features: length mismatch";
  let n = float_of_int nns in
  let sum = Array.fold_left ( +. ) 0.0 s in
  let sum2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 s in
  [| sum2; sum2 /. Float.max 1.0 n; sum; sum /. Float.max 1.0 n; n; 1.0 |]

let predict c ~nns ~s =
  let f = features ~nns ~s in
  let v =
    (c.a1 *. f.(0)) +. (c.a2 *. f.(1)) +. (c.a3 *. f.(2)) +. (c.a4 *. f.(3))
    +. (c.a5 *. f.(4)) +. c.a6
  in
  Float.max 0.0 v

let predict_uniform c ~nns ~rate =
  predict c ~nns ~s:(Array.make nns rate)

let default_kth_sampler rng =
  let v = exp (Rng.gaussian rng ~mu:(log 0.7) ~sigma:0.5) in
  Float.min 2.5 (Float.max 0.15 v)

let random_instance rng ~kth_of =
  let nns = Rng.int_in rng 2 80 in
  let rate = 0.1 +. Rng.float rng 0.7 in
  let pair_seed = Rng.int rng 1_000_000 in
  let nets = Array.init nns (fun i -> i) in
  let kth = Array.init nns (fun _ -> kth_of rng) in
  let sensitive i j = i <> j && Rng.pair_hash ~seed:pair_seed i j < rate in
  Instance.make ~nets ~kth ~sensitive

(* The solves record into a registry of their own: they model the
   solver, they are not work of the caller's flow, whose sino.* series
   would otherwise count them.  They run in a leaf span of their own, so
   a profile names them instead of charging the caller's phase. *)
let sample_set ?(params = Keff.default) ~trials ~seed ~kth_of () =
  Eda_obs.Trace.span "estimate.sample" @@ fun () ->
  Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
  let rng = Rng.create seed in
  List.init trials (fun _ ->
      let inst = random_instance rng ~kth_of in
      let nss = Solver.shields_needed ~params (Rng.split rng) inst in
      (inst, nss))

let fit ?(params = Keff.default) ?(trials = 240) ?(seed = 2002) ~kth_of () =
  let samples = sample_set ~params ~trials ~seed ~kth_of () in
  let rows =
    List.map
      (fun (inst, _) ->
        features ~nns:(Instance.size inst) ~s:(Instance.sensitivities inst))
      samples
  in
  let b = Array.of_list (List.map (fun (_, nss) -> float_of_int nss) samples) in
  let x = Matrix.least_squares (Matrix.of_rows (Array.of_list rows)) b in
  { a1 = x.(0); a2 = x.(1); a3 = x.(2); a4 = x.(3); a5 = x.(4); a6 = x.(5) }

type quality = {
  mean_abs_err : float;
  rel_err_large : float;
  aggregate_err : float;
}

let accuracy ?(params = Keff.default) ?(trials = 120) ?(seed = 7177) ~kth_of c =
  let samples = sample_set ~params ~trials ~seed ~kth_of () in
  let abs_errs = ref [] and rel_errs = ref [] in
  let sum_pred = ref 0.0 and sum_act = ref 0.0 in
  List.iter
    (fun (inst, nss) ->
      let pred =
        predict c ~nns:(Instance.size inst) ~s:(Instance.sensitivities inst)
      in
      let err = Float.abs (pred -. float_of_int nss) in
      abs_errs := err :: !abs_errs;
      sum_pred := !sum_pred +. pred;
      sum_act := !sum_act +. float_of_int nss;
      if nss >= 5 then rel_errs := (err /. float_of_int nss) :: !rel_errs)
    samples;
  let mean l =
    match l with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  {
    mean_abs_err = mean !abs_errs;
    rel_err_large = mean !rel_errs;
    aggregate_err =
      (if !sum_act = 0.0 then 0.0 else Float.abs (!sum_pred -. !sum_act) /. !sum_act);
  }

let pp fmt c =
  Format.fprintf fmt
    "Nss ~ %.3f*SS2 %+.3f*SS2/N %+.3f*SS %+.3f*SS/N %+.3f*N %+.3f"
    c.a1 c.a2 c.a3 c.a4 c.a5 c.a6
