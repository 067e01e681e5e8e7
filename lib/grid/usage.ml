open Eda_geom

type t = {
  grid : Grid.t;
  gcell_um : float;
  nns_h : int array;
  nns_v : int array;
  nss_h : int array;
  nss_v : int array;
}

let create grid ~gcell_um =
  let n = Grid.num_regions grid in
  {
    grid;
    gcell_um;
    nns_h = Array.make n 0;
    nns_v = Array.make n 0;
    nss_h = Array.make n 0;
    nss_v = Array.make n 0;
  }

let grid t = t.grid
let gcell_um t = t.gcell_um

let nns_array t = function Dir.H -> t.nns_h | Dir.V -> t.nns_v
let nss_array t = function Dir.H -> t.nss_h | Dir.V -> t.nss_v

let add_route t route =
  List.iter
    (fun (r, dir) ->
      let a = nns_array t dir in
      a.(r) <- a.(r) + 1)
    (Route.occupied t.grid route)

let of_routes grid ~gcell_um routes =
  let t = create grid ~gcell_um in
  List.iter (add_route t) routes;
  t

let set_shields t r dir count =
  if count < 0 then invalid_arg "Usage.set_shields: negative";
  (nss_array t dir).(r) <- count

let nns t r dir = (nns_array t dir).(r)
let nss t r dir = (nss_array t dir).(r)
let used t r dir = nns t r dir + nss t r dir

let capacity t r dir = Grid.cap t.grid (Grid.region_pt t.grid r) dir

let utilization t r dir =
  float_of_int (used t r dir) /. float_of_int (capacity t r dir)

let overflow t r dir = max 0 (used t r dir - capacity t r dir)

let fold_regions t f init =
  let acc = ref init in
  for r = 0 to Grid.num_regions t.grid - 1 do
    List.iter (fun dir -> acc := f !acc r dir) Dir.all
  done;
  !acc

let total_overflow t = fold_regions t (fun acc r d -> acc + overflow t r d) 0
let total_shields t = fold_regions t (fun acc r d -> acc + nss t r d) 0

let expanded_area t =
  let w = Grid.width t.grid and h = Grid.height t.grid in
  let region_extent r dir =
    (* Vertical tracks are laid side by side horizontally: V usage governs
       width, H usage governs height. *)
    let use = used t r dir and cap = capacity t r dir in
    t.gcell_um *. Float.max 1.0 (float_of_int use /. float_of_int cap)
  in
  let max_row = ref 0.0 in
  for y = 0 to h - 1 do
    let len = ref 0.0 in
    for x = 0 to w - 1 do
      let r = Grid.region_id t.grid (Point.make x y) in
      len := !len +. region_extent r Dir.V
    done;
    max_row := Float.max !max_row !len
  done;
  let max_col = ref 0.0 in
  for x = 0 to w - 1 do
    let len = ref 0.0 in
    for y = 0 to h - 1 do
      let r = Grid.region_id t.grid (Point.make x y) in
      len := !len +. region_extent r Dir.H
    done;
    max_col := Float.max !max_col !len
  done;
  (!max_row, !max_col, !max_row *. !max_col)

let copy t =
  {
    t with
    nns_h = Array.copy t.nns_h;
    nns_v = Array.copy t.nns_v;
    nss_h = Array.copy t.nss_h;
    nss_v = Array.copy t.nss_v;
  }

let pp fmt t =
  let row, col, area = expanded_area t in
  Format.fprintf fmt
    "usage: overflow=%d shields=%d area=%.0fx%.0f=%.3gum2" (total_overflow t)
    (total_shields t) row col area
