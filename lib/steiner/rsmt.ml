open Eda_geom

(* Hanan grid candidates: all (x, y) crossings of pin coordinates that are
   not already pins. *)
let hanan_candidates pts =
  let xs = List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.Point.x) pts)) in
  let ys = List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.Point.y) pts)) in
  let pinset = Hashtbl.create (Array.length pts) in
  Array.iter (fun p -> Hashtbl.replace pinset (p.Point.x, p.Point.y) ()) pts;
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y -> if Hashtbl.mem pinset (x, y) then None else Some (Point.make x y))
        ys)
    xs

(* Iterated 1-Steiner: greedily add the Hanan point that shrinks the MST
   most; stop when no candidate helps.  Degree-<=2 Steiner points are
   useless in an MST, so at most (#pins - 2) additions happen. *)
let iterated_one_steiner pts =
  let max_extra = max 0 (Array.length pts - 2) in
  let rec go current n_added =
    if n_added >= max_extra then current
    else begin
      let base = Rmst.length current in
      let candidates = hanan_candidates current in
      let best =
        List.fold_left
          (fun best cand ->
            let trial = Array.append current [| cand |] in
            let len = Rmst.length trial in
            match best with
            | Some (_, blen) when blen <= len -> best
            | _ when len < base -> Some (cand, len)
            | best -> best)
          None candidates
      in
      match best with
      | None -> current
      | Some (cand, _) -> go (Array.append current [| cand |]) (n_added + 1)
    end
  in
  go pts 0

let dedup pts =
  let seen = Hashtbl.create (Array.length pts) in
  Array.of_list
    (Array.fold_right
       (fun p acc ->
         let key = (p.Point.x, p.Point.y) in
         if Hashtbl.mem seen key then acc
         else begin
           Hashtbl.add seen key ();
           p :: acc
         end)
       pts [])

(* Iterated 1-Steiner is O(k^5); beyond this fanout fall back to the MST. *)
let exact_threshold = 10

let with_steiner pts =
  let pts = dedup pts in
  if Array.length pts <= 2 || Array.length pts > exact_threshold then pts
  else iterated_one_steiner pts

let length pts = Rmst.length (with_steiner pts)

let rectilinear_edges pts =
  let all = with_steiner pts in
  List.map (fun (i, j) -> (all.(i), all.(j))) (Rmst.tree all)
