type params = {
  k1 : float;
  shield_block : float;
  window : int;
  coupling : float array;
}

let pair_coupling p ~dist ~shields_between =
  if dist < 1 then invalid_arg "Keff.pair_coupling: dist >= 1";
  if shields_between < 0 then invalid_arg "Keff.pair_coupling: negative shields";
  if dist > p.window then 0.0
  else (p.k1 ** float_of_int dist) *. (p.shield_block ** float_of_int shields_between)

(* The same two powers and product as [pair_coupling], once per (d, n). *)
let make ~k1 ~shield_block ~window =
  if window < 0 then invalid_arg "Keff.make: negative window";
  let w1 = window + 1 in
  let coupling =
    Array.init (w1 * w1) (fun i ->
        (k1 ** float_of_int (i / w1)) *. (shield_block ** float_of_int (i mod w1)))
  in
  { k1; shield_block; window; coupling }

let default = make ~k1:0.55 ~shield_block:0.25 ~window:8

let max_feasible_k p =
  (* 2 * sum_{d=1..window} k1^d *)
  let s = ref 0.0 in
  for d = 1 to p.window do
    s := !s +. (p.k1 ** float_of_int d)
  done;
  2.0 *. !s
