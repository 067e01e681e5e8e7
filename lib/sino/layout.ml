let shield = -1

type t = { inst : Instance.t; slots : int array; pos : int array }

let positions inst slots =
  let n = Instance.size inst in
  let pos = Array.make n (-1) in
  Array.iteri
    (fun track i ->
      if i <> shield then begin
        if i < 0 || i >= n then invalid_arg "Layout.make: unknown net index";
        if pos.(i) >= 0 then invalid_arg "Layout.make: duplicate net";
        pos.(i) <- track
      end)
    slots;
  Array.iteri
    (fun i p -> if p < 0 then invalid_arg (Printf.sprintf "Layout.make: net %d missing" i))
    pos;
  pos

let make inst slots =
  let slots = Array.copy slots in
  { inst; slots; pos = positions inst slots }

let slots t = Array.copy t.slots
let num_tracks t = Array.length t.slots

let num_shields t =
  Array.fold_left (fun acc s -> if s = shield then acc + 1 else acc) 0 t.slots

(* K of the net on track [track]: walk outwards, rightwards then leftwards,
   counting intervening shields; stop at the Keff window.  Each pair is
   read from the coupling table, and two plain loops keep the sum in a
   register. *)
let k_at inst p slots track =
  let n = Array.length slots in
  let i = slots.(track) in
  let table = p.Keff.coupling and w1 = p.Keff.window + 1 in
  let total = ref 0.0 and shields = ref 0 in
  for q = track + 1 to min (n - 1) (track + p.Keff.window) do
    let j = slots.(q) in
    if j = shield then incr shields
    else if Instance.sens inst i j then
      total := !total +. table.(((q - track) * w1) + !shields)
  done;
  shields := 0;
  for q = track - 1 downto max 0 (track - p.Keff.window) do
    let j = slots.(q) in
    if j = shield then incr shields
    else if Instance.sens inst i j then
      total := !total +. table.(((track - q) * w1) + !shields)
  done;
  !total

let cap_violations_of inst slots =
  let cnt = ref 0 in
  for q = 0 to Array.length slots - 2 do
    let a = slots.(q) and b = slots.(q + 1) in
    if a <> shield && b <> shield && Instance.sens inst a b then incr cnt
  done;
  !cnt

let k_of t p i = k_at t.inst p t.slots t.pos.(i)
let k_all t p = Array.init (Instance.size t.inst) (k_of t p)
let cap_violations t = cap_violations_of t.inst t.slots

let k_tolerance = 1e-12
let over_kth t i k = k > Instance.kth t.inst i +. k_tolerance

let k_violations t p =
  let out = ref [] in
  for i = Instance.size t.inst - 1 downto 0 do
    if over_kth t i (k_of t p i) then out := i :: !out
  done;
  !out

let feasible t p = cap_violations t = 0 && k_violations t p = []

let feasible_of_k t k =
  cap_violations t = 0
  &&
  let ok = ref true in
  Array.iteri (fun i ki -> if over_kth t i ki then ok := false) k;
  !ok

let pp fmt t =
  Array.iter
    (fun s ->
      if s = shield then Format.pp_print_string fmt "|S|"
      else Format.fprintf fmt "|%d|" (Instance.net_id t.inst s))
    t.slots
