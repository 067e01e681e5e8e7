(* Provable shield lower bounds from sensitivity cliques.  The argument
   (DESIGN.md section 8):

   Let C be a clique of k pairwise-sensitive nets in a panel of m nets
   and s shields (every track holds a net or a shield; there are no
   empty tracks).  Order C by track position; the k-1 gaps between
   consecutive clique members are disjoint track intervals.

   1. Capacitive: a sensitive pair may not sit on adjacent tracks, so
      every gap holds >= 1 track, each a shield or a non-clique net.
   2. Inductive: in a gap with g tracks and no shield, the two clique
      members at its ends are at distance g+1 with zero shields between,
      so each receives at least k1^(g+1) from the other (contributions
      are non-negative and additive, and the pair is within the Keff
      window unless g+1 > window).  Feasibility hence needs
      k1^(g+1) <= max Kth over C, or g >= window: a shield-free gap has
      at least q tracks, with q the smallest such g.

   Only m - k non-clique nets exist, so at most (m-k)/q gaps can be
   shield-free; the remaining gaps each contain a shield, and gaps are
   disjoint, so s >= (k-1) - (m-k)/q.  Every step holds for any
   feasible layout, so the bound is sound for any solver. *)

let one_shield_threshold p =
  p.Keff.k1 *. p.Keff.k1 *. p.Keff.shield_block

let greedy_clique ?keep inst =
  let n = Instance.size inst in
  let keep = match keep with Some f -> f | None -> fun _ -> true in
  let cand = Array.of_list (List.filter keep (List.init n Fun.id)) in
  let deg i =
    Array.fold_left
      (fun acc j -> if j <> i && Instance.sens inst i j then acc + 1 else acc)
      0 cand
  in
  (* candidate vertices by degree (desc), index breaking ties *)
  let keyed = Array.map (fun i -> (i, deg i)) cand in
  Array.sort
    (fun (a, da) (b, db) -> if da <> db then compare db da else compare a b)
    keyed;
  let best = ref [||] in
  Array.iter
    (fun (seed, _) ->
      let clique = ref [ seed ] in
      Array.iter
        (fun (v, _) ->
          if v <> seed && List.for_all (fun c -> Instance.sens inst v c) !clique
          then clique := v :: !clique)
        keyed;
      if List.length !clique > Array.length !best then
        best := Array.of_list !clique)
    keyed;
  Array.sort compare !best;
  !best

(* Shield-free gap width forced by the clique's loosest bound; reads
   Layout's K tolerance so the bound never exceeds what the feasibility
   predicate itself would accept. *)
let free_gap_width p ~kmax =
  let rec go g =
    if g >= p.Keff.window then p.Keff.window
    else if p.Keff.k1 ** float_of_int (g + 1) <= kmax +. Layout.k_tolerance then g
    else go (g + 1)
  in
  go 1

let bound_for p inst clique =
  let k = Array.length clique in
  if k < 2 then 0
  else begin
    let m = Instance.size inst in
    let kmax =
      Array.fold_left
        (fun acc i -> Float.max acc (Instance.kth inst i))
        neg_infinity clique
    in
    let q = free_gap_width p ~kmax in
    max 0 (k - 1 - ((m - k) / q))
  end

let shield_lower_bound ?(params = Keff.default) inst =
  (* two candidate cliques: the largest we can find (capacitive-dominated
     bound) and the largest among tight nets, whose small Kth widens the
     forced shield-free gaps (inductive-dominated bound) *)
  let all = greedy_clique inst in
  let tight =
    greedy_clique
      ~keep:(fun i -> Instance.kth inst i < params.Keff.k1 *. params.Keff.k1)
      inst
  in
  max (bound_for params inst all) (bound_for params inst tight)
