module Usage = Eda_grid.Usage
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

(* Phase III telemetry — the paper's claim that refinement touches few
   nets is checkable from these counters *)
let m_ripup_rounds = Metrics.counter "refine.ripup_rounds"
let m_p1_fixed = Metrics.counter "refine.pass1_nets_fixed"
let m_p2_removed = Metrics.counter "refine.pass2_shields_removed"
let m_resolves = Metrics.counter "refine.sino_resolves"
let m_reordered = Metrics.counter "refine.nets_reordered"
let g_residual = Metrics.gauge "refine.residual_violations"

type stats = {
  pass1_nets_fixed : int;
  pass1_resolves : int;
  pass2_shields_removed : int;
  pass2_resolves : int;
  residual_violations : int;
}

let sync_shields usage key soln =
  let r, d = key in
  Usage.set_shields usage r d (Layout.num_shields soln.Phase2.layout)

let net_noise plan ~gcell_um ~lsk_model i =
  snd (Noise.net_worst plan ~gcell_um ~lsk_model i)

(* ---------------- Pass 1: eliminate violations --------------------- *)

let pass1 ?pool ?(deadline = Eda_guard.Deadline.none) ~plan ~grid ~netlist
    ~routes ~phase2 ~usage ~lsk_model ~bound_v () =
  let gcell_um = Usage.gcell_um usage in
  let fixes = ref 0 and resolves = ref 0 in
  let rounds = ref 0 in
  let given_up : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let continue_outer = ref true in
  (* checkpoint: each round rip-ups exactly one net and re-solves its
     regions through Phase2.replace, so the table is consistent between
     rounds; stopping early just leaves more residual violations *)
  while !continue_outer && not (Eda_guard.Deadline.check deadline ~phase:"refine")
  do
    Metrics.incr m_ripup_rounds;
    incr rounds;
    Eda_obs.Progress.tick ~items_done:!rounds ();
    (* the full-netlist violation scan each round is the expensive part
       of this pass; it is read-only, so it fans out over the pool while
       the tighten-and-resolve below stays sequential *)
    let violating =
      Noise.violations ?pool ~plan ~grid ~gcell_um ~phase2 ~lsk_model ~netlist
        ~routes ~bound_v ()
      |> List.filter (fun (i, _) -> not (Hashtbl.mem given_up i))
    in
    match violating with
    | [] -> continue_outer := false
    | (i, _) :: _ ->
        let resolves0 = !resolves in
        let lsk_budget = Eda_lsk.Lsk.lsk_bound lsk_model ~noise:bound_v in
        let n_keys = List.length (Phase2.regions_of_net phase2 i) in
        let inner_guard = ref (4 * max 10 n_keys) in
        let fixed = ref false and exhausted = ref false in
        while
          (not !fixed) && (not !exhausted) && !inner_guard > 0
          && not (Eda_guard.Deadline.expired deadline)
        do
          decr inner_guard;
          (* least congested region on the net's route whose bound for
             this net still has room to tighten.  The Kth reduction is
             sized from the net's remaining LSK excess (the continuous
             counterpart of the paper's one-shield-at-a-time Formula-(3)
             step; see DESIGN.md). *)
          let sink, lsk_now, _ = Noise.worst_sink plan ~gcell_um ~lsk_model i in
          let excess = lsk_now -. lsk_budget in
          if excess <= 0.0 then fixed := true
          else begin
            (* only the regions on the path to the worst sink contribute
               to its LSK; tightening elsewhere cannot help *)
            let keys =
              Noise.path_slots plan i ~sink
              |> List.map (fun (p, li) -> (Phase2.panel_key phase2 p, p, li))
              |> List.sort (fun (((ra, da) as ka), _, _) (((rb, db) as kb), _, _) ->
                     match
                       compare
                         (Usage.utilization usage ra da)
                         (Usage.utilization usage rb db)
                     with
                     | 0 -> compare ka kb
                     | c -> c)
            in
            let rec try_keys = function
              | [] -> exhausted := true
              | (key, p, li) :: rest ->
                  let soln = Phase2.panel_soln phase2 p in
                  let k_now = soln.Phase2.k.(li) in
                  let len = Noise.segment_um plan ~gcell_um ~panel:p ~slot:li in
                  if len <= 0.0 || k_now < 0.025 then try_keys rest
                  else begin
                    (* reduce by what the net still needs, but at
                       most one shield's worth per step (a shield
                       damps residual coupling by shield_block) *)
                    let dk = 1.15 *. excess /. len in
                    let one_shield =
                      k_now *. (1.0 -. (Phase2.keff phase2).Eda_sino.Keff.shield_block)
                    in
                    let target =
                      Float.max 0.02 (k_now -. Float.min dk one_shield)
                    in
                    let inst' = Instance.with_kth soln.Phase2.inst li target in
                    let soln' =
                      Phase2.resolve ~deadline ~net:i ~pass:"pass1"
                        phase2 key inst'
                    in
                    incr resolves;
                    Metrics.incr m_resolves;
                    Metrics.add m_reordered (Instance.size inst');
                    Phase2.replace phase2 key soln';
                    sync_shields usage key soln';
                    if
                      net_noise plan ~gcell_um ~lsk_model i
                      <= bound_v +. 1e-12
                    then fixed := true
                  end
            in
            try_keys keys
          end
        done;
        let ok = net_noise plan ~gcell_um ~lsk_model i <= bound_v +. 1e-12 in
        if ok then incr fixes else Hashtbl.replace given_up i ();
        Eda_obs.Journal.record "net.refine"
          [ ("net", string_of_int i); ("pass", "pass1") ]
          ~data:[ ("resolves", float_of_int (!resolves - resolves0)) ]
          ~outcome:(if ok then "fixed" else "gave_up")
  done;
  (!fixes, !resolves)

(* ---------------- Pass 2: reduce congestion ------------------------ *)

(* Pass-2 candidates: shielded panels, most utilized first, with ties
   broken on the key so the pick never depends on hash-table order. *)
module Candidates = Set.Make (struct
  type t = float * Phase2.key

  let compare (ua, ka) (ub, kb) =
    match Float.compare ub ua with 0 -> compare ka kb | c -> c
end)

let pass2 ?(deadline = Eda_guard.Deadline.none) ~plan ~phase2 ~usage ~lsk_model
    ~bound_v () =
  let gcell_um = Usage.gcell_um usage in
  let removed = ref 0 and resolves = ref 0 in
  let lsk_budget = Eda_lsk.Lsk.lsk_bound lsk_model ~noise:bound_v in
  let candidate ((r, d) as key) = (Usage.utilization usage r d, key) in
  (* a round changes the shields, and so the utilization, of the panel it
     picks and of no other, so the set is built once: the picked panel
     leaves it and comes back only after an accepted drop *)
  let candidates = ref Candidates.empty and n_keys = ref 0 in
  Phase2.iter phase2 (fun key soln ->
      incr n_keys;
      if Layout.num_shields soln.Phase2.layout > 0 then
        candidates := Candidates.add (candidate key) !candidates);
  let resolve_budget = 25 * max 1 !n_keys in
  (* the re-solved layout of the shortest grant prefix that drops a
     shield, if any prefix does *)
  let first_drop key p soln =
    let inst = soln.Phase2.inst in
    (* per-net LSK slack, converted into a K allowance here *)
    let slack li =
      let lsk_worst, _ =
        Noise.net_worst plan ~gcell_um ~lsk_model (Instance.net_id inst li)
      in
      let len = Noise.segment_um plan ~gcell_um ~panel:p ~slot:li in
      if len <= 0.0 then 0.0 else Float.max 0.0 ((lsk_budget -. lsk_worst) /. len)
    in
    (* relaxed bounds, largest slack first, for the nets with slack *)
    let grants =
      List.init (Instance.size inst) (fun li -> (li, slack li))
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filter (fun (_, s) -> s > 1e-9)
      |> List.map (fun (li, s) ->
             let k_now = soln.Phase2.k.(li) in
             (li, Float.max (Instance.kth inst li) (k_now +. (0.9 *. s))))
      |> Array.of_list
    in
    let shields_before = Layout.num_shields soln.Phase2.layout in
    (* re-solve under the first [j] grants, warm from the stored layout *)
    let probe j =
      let inst' =
        Array.fold_left
          (fun inst (li, kth) -> Instance.with_kth inst li kth)
          inst (Array.sub grants 0 j)
      in
      let soln' =
        Phase2.resolve ~deadline
          ~net:(Instance.net_id inst (fst grants.(j - 1)))
          ~pass:"pass2" phase2 key inst'
      in
      incr resolves;
      Metrics.incr m_resolves;
      Metrics.add m_reordered (Instance.size inst');
      if Layout.num_shields soln'.Phase2.layout < shields_before then Some soln'
      else None
    in
    (* from a feasible stored layout, "prefix j drops a shield" is
       monotone in j (refine.mli): every grant at once decides the
       panel, and bisection finds the shortest dropping prefix, knowing
       that prefix [lo] drops nothing and prefix [hi] drops *)
    let rec bisect lo hi best =
      if hi - lo <= 1 then best
      else
        let mid = (lo + hi) / 2 in
        match probe mid with
        | Some s -> bisect lo mid s
        | None -> bisect mid hi best
    in
    let m = Array.length grants in
    if m = 0 then None
    else Option.map (bisect 0 m) (probe m)
  in
  (* the accept must introduce no violation.  A net whose K did not rise
     gains no noise (the LSK table is isotonic), so only the nets whose
     K rose are checked, sequentially, up to the first one over the
     bound *)
  let no_new_violation ~old soln' =
    let inst = old.Phase2.inst in
    let rec ok li =
      li >= Instance.size inst
      || (soln'.Phase2.k.(li) <= old.Phase2.k.(li)
         || net_noise plan ~gcell_um ~lsk_model (Instance.net_id inst li)
            <= bound_v +. 1e-12)
         && ok (li + 1)
    in
    ok 0
  in
  let progress = ref true in
  (* checkpoint: pass 2 is pure optimisation (shield removal with a
     revert-on-violation guard), so any round boundary is a safe stop *)
  while
    !progress && !resolves < resolve_budget
    && not (Eda_guard.Deadline.check deadline ~phase:"refine")
  do
    progress := false;
    match Candidates.min_elt_opt !candidates with
    | None -> ()
    | Some ((_, key) as top) ->
        candidates := Candidates.remove top !candidates;
        (match Phase2.panel phase2 key with
        | None -> ()
        | Some p -> (
            let old = Phase2.panel_soln phase2 p in
            match first_drop key p old with
            | None -> ()
            | Some soln' ->
                Phase2.replace phase2 key soln';
                sync_shields usage key soln';
                let left = Layout.num_shields soln'.Phase2.layout in
                if no_new_violation ~old soln' then begin
                  removed := !removed + Layout.num_shields old.Phase2.layout - left;
                  progress := true;
                  if left > 0 then
                    candidates := Candidates.add (candidate key) !candidates
                end
                else begin
                  Phase2.replace phase2 key old;
                  sync_shields usage key old
                end));
        (* even without an accept, other regions may still improve *)
        if not (Candidates.is_empty !candidates) then progress := true
  done;
  (!removed, !resolves)

let run ~grid ~netlist ~routes ~phase2 ~usage ~lsk_model ~bound_v
    ?(deadline = Eda_guard.Deadline.none) ?pool ?plan () =
  let gcell_um = Usage.gcell_um usage in
  let plan =
    match plan with
    | Some p -> p
    | None -> Noise.plan ~grid ~phase2 ~netlist ~routes
  in
  let p1_fixed, p1_res =
    Trace.span "refine.pass1" (fun () ->
        pass1 ?pool ~deadline ~plan ~grid ~netlist ~routes ~phase2 ~usage
          ~lsk_model ~bound_v ())
  in
  let p2_removed, p2_res =
    Trace.span "refine.pass2" (fun () ->
        pass2 ~deadline ~plan ~phase2 ~usage ~lsk_model ~bound_v ())
  in
  let residual =
    List.length
      (Noise.violations ?pool ~plan ~grid ~gcell_um ~phase2 ~lsk_model ~netlist
         ~routes ~bound_v ())
  in
  Metrics.add m_p1_fixed p1_fixed;
  Metrics.add m_p2_removed p2_removed;
  Metrics.set g_residual (float_of_int residual);
  {
    pass1_nets_fixed = p1_fixed;
    pass1_resolves = p1_res;
    pass2_shields_removed = p2_removed;
    pass2_resolves = p2_res;
    residual_violations = residual;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "phase3: pass1 fixed %d nets (%d SINO re-runs); pass2 removed %d shields (%d re-runs); residual violations %d"
    s.pass1_nets_fixed s.pass1_resolves s.pass2_shields_removed s.pass2_resolves
    s.residual_violations
