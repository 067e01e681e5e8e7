type slot = Net of int | Shield

type t = { inst : Instance.t; slots : slot array; pos : int array }

let positions inst slots =
  let n = Instance.size inst in
  let pos = Array.make n (-1) in
  Array.iteri
    (fun track slot ->
      match slot with
      | Shield -> ()
      | Net i ->
          if i < 0 || i >= n then invalid_arg "Layout.make: unknown net index";
          if pos.(i) >= 0 then invalid_arg "Layout.make: duplicate net";
          pos.(i) <- track)
    slots;
  Array.iteri
    (fun i p -> if p < 0 then invalid_arg (Printf.sprintf "Layout.make: net %d missing" i))
    pos;
  pos

let make inst slots = { inst; slots = Array.copy slots; pos = positions inst slots }

let instance t = t.inst
let slots t = Array.copy t.slots
let num_tracks t = Array.length t.slots

let num_shields t =
  Array.fold_left (fun acc s -> match s with Shield -> acc + 1 | Net _ -> acc) 0 t.slots

let position t i =
  if i < 0 || i >= Instance.size t.inst then invalid_arg "Layout.position";
  t.pos.(i)

(* K_i: walk outwards from the net's track, rightwards then leftwards,
   counting intervening shields; stop at the Keff window.  Each pair is
   read from the coupling table, and two plain loops keep the sum in a
   register. *)
let k_of t p i =
  let track = position t i in
  let n = num_tracks t in
  let table = p.Keff.coupling and w1 = p.Keff.window + 1 in
  let total = ref 0.0 and shields = ref 0 in
  for q = track + 1 to min (n - 1) (track + p.Keff.window) do
    match t.slots.(q) with
    | Shield -> incr shields
    | Net j ->
        if Instance.sens t.inst i j then
          total := !total +. table.(((q - track) * w1) + !shields)
  done;
  shields := 0;
  for q = track - 1 downto max 0 (track - p.Keff.window) do
    match t.slots.(q) with
    | Shield -> incr shields
    | Net j ->
        if Instance.sens t.inst i j then
          total := !total +. table.(((track - q) * w1) + !shields)
  done;
  !total

let k_all t p = Array.init (Instance.size t.inst) (k_of t p)

let cap_violations t =
  let n = num_tracks t in
  let cnt = ref 0 in
  for q = 0 to n - 2 do
    match (t.slots.(q), t.slots.(q + 1)) with
    | Net i, Net j when Instance.sens t.inst i j -> incr cnt
    | (Net _ | Shield), (Net _ | Shield) -> ()
  done;
  !cnt

let k_violations t p =
  let out = ref [] in
  for i = Instance.size t.inst - 1 downto 0 do
    if k_of t p i > Instance.kth t.inst i +. 1e-12 then out := i :: !out
  done;
  !out

let feasible t p = cap_violations t = 0 && k_violations t p = []

let insert_shield t pos =
  let n = num_tracks t in
  if pos < 0 || pos > n then invalid_arg "Layout.insert_shield: bad position";
  let slots =
    Array.init (n + 1) (fun q ->
        if q < pos then t.slots.(q) else if q = pos then Shield else t.slots.(q - 1))
  in
  make t.inst slots

let remove_shield t pos =
  let n = num_tracks t in
  if pos < 0 || pos >= n then invalid_arg "Layout.remove_shield: bad position";
  (match t.slots.(pos) with
  | Shield -> ()
  | Net _ -> invalid_arg "Layout.remove_shield: track holds a net");
  let slots = Array.init (n - 1) (fun q -> if q < pos then t.slots.(q) else t.slots.(q + 1)) in
  make t.inst slots

let swap t a b =
  let n = num_tracks t in
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Layout.swap: bad track";
  let slots = Array.copy t.slots in
  let tmp = slots.(a) in
  slots.(a) <- slots.(b);
  slots.(b) <- tmp;
  make t.inst slots

let pp fmt t =
  Array.iter
    (function
      | Shield -> Format.pp_print_string fmt "|S|"
      | Net i -> Format.fprintf fmt "|%d|" (Instance.net_id t.inst i))
    t.slots
