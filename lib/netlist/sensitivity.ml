type t = { seed : int; rate : float }

let make ~seed ~rate =
  (* written so that NaN fails too *)
  if not (rate >= 0.0 && rate <= 1.0) then invalid_arg "Sensitivity.make: bad rate";
  { seed; rate }

let rate t = t.rate
let seed t = t.seed

let sensitive t i j =
  i <> j && Eda_util.Rng.pair_hash ~seed:t.seed i j < t.rate

let pp fmt t = Format.fprintf fmt "sensitivity(rate=%.2f,seed=%d)" t.rate t.seed
