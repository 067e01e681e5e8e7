type t = { seed : int; rate : float }

let make ~seed ~rate =
  (* written so that NaN fails too *)
  if not (rate >= 0.0 && rate <= 1.0) then invalid_arg "Sensitivity.make: bad rate";
  { seed; rate }

let rate t = t.rate
let seed t = t.seed

let sensitive t i j =
  i <> j && Eda_util.Rng.pair_hash ~seed:t.seed i j < t.rate

let segment_sensitivity t ~net ~neighbours =
  let others = ref 0 and sens = ref 0 in
  Array.iter
    (fun j ->
      if j <> net then begin
        incr others;
        if sensitive t net j then incr sens
      end)
    neighbours;
  if !others = 0 then 0.0 else float_of_int !sens /. float_of_int !others

let pp fmt t = Format.fprintf fmt "sensitivity(rate=%.2f,seed=%d)" t.rate t.seed
