module Grid = Eda_grid.Grid
module Route = Eda_grid.Route
module Dir = Eda_grid.Dir
module Usage = Eda_grid.Usage
module Sensitivity = Eda_netlist.Sensitivity
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Solver = Eda_sino.Solver
module Keff = Eda_sino.Keff
module Rng = Eda_util.Rng
module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace
module Journal = Eda_obs.Journal
module Clock = Eda_obs.Clock

(* Phase II telemetry: one panel per occupied (region, direction) *)
let m_panels_h = Metrics.counter ~labels:[ ("dir", "H") ] "phase2.panels"
let m_panels_v = Metrics.counter ~labels:[ ("dir", "V") ] "phase2.panels"
let h_panel_nets = Metrics.histogram "phase2.panel_nets"
let m_shields = Metrics.counter "phase2.shields_inserted"
let m_resolves = Metrics.counter "phase2.resolves"

(* Guard counters are looked up at the event (registration is idempotent
   and mutex-guarded, so this is safe from worker domains) and therefore
   only exist in runs that actually retried / fell back / found an
   infeasible panel — clean runs export a byte-identical metrics set.
   The retry counter itself moved into Solver.solve with the ladder. *)
let c_fallbacks () = Metrics.counter "guard.fallbacks"
let c_infeasible () = Metrics.counter "phase2.infeasible_panels"

(* Panel-signature recurrence — sizes the ROADMAP content-addressed panel
   cache before it exists.  Every SINO instance this module solves or
   re-solves is fingerprinted with Instance.signature; the per-flow seen
   set (scoped to [t], guarded for worker domains) splits them into
   first-sights and repeats.  The split is a set property, so the counts
   are identical for any jobs value. *)
let m_sig_unique () = Metrics.counter "sino.panel_sig_unique"
let m_sig_dups () = Metrics.counter "sino.panel_sig_dups"

(* The cache disposition is journaled as its own dimension, not folded
   into the outcome: the outcome describes the solution (identical for
   any schedule), while hit/miss depends on which domain touches a
   duplicate panel first under jobs>1.  The determinism compares strip
   the "cache" dimension and the sino.cache_* series. *)
let cache_dim = function
  | None -> []
  | Some Solver.Hit -> [ ("cache", "hit") ]
  | Some Solver.Miss -> [ ("cache", "miss") ]
  | Some Solver.Stored -> [ ("cache", "stored") ]

let note_signature ~sigs ~mu sg =
  let seen =
    Mutex.protect mu (fun () ->
        Hashtbl.mem sigs sg
        || (Hashtbl.add sigs sg ();
            false))
  in
  Metrics.incr (if seen then m_sig_dups () else m_sig_unique ())

type key = int * Dir.t

type soln = {
  inst : Instance.t;
  layout : Layout.t;
  k : float array;
  feasible : bool;
  degraded : bool;
}

type mode = Solver.mode = Order_only | Min_area

(* Panels are numbered once, in key order, and keep their number, their
   members and the members' order for the life of the store: Phase III
   only swaps a panel's solution for one solved on the same nets. *)
type t = {
  grid : Grid.t;
  keff : Keff.params;
  index : (key, int) Hashtbl.t;  (** key -> panel number; [iter]'s order *)
  keys : key array;  (** panel number -> key *)
  solns : soln array;  (** panel number -> current solution *)
  net_regions : (int, key list) Hashtbl.t;
  sigs : (string, unit) Hashtbl.t;  (** signatures seen this flow *)
  sig_mu : Mutex.t;
  cache : Eda_sino.Cache.t option;  (** shared with Phase III re-solves *)
  seed : int;  (** flow seed — re-solve cache keys must match solve keys *)
}

let grid t = t.grid
let keff t = t.keff

let soln_of_layout ~keff ?(degraded = false) inst layout =
  let k = Layout.k_all layout keff in
  { inst; layout; k; feasible = Layout.feasible_of_k layout k; degraded }

(* Conservative fallback when the solver cannot reach feasibility: keep
   the instance's own track order and, in Min_area mode, interleave a
   shield between every adjacent pair (zero capacitive coupling, maximal
   inductive isolation short of more exotic layouts). *)
let fallback_layout mode inst =
  let n = Instance.size inst in
  let slots =
    match mode with
    | _ when n = 0 -> [||]
    | Order_only -> Array.init n Fun.id
    | Min_area ->
        Array.init ((2 * n) - 1) (fun q -> if q land 1 = 1 then Layout.shield else q / 2)
  in
  Layout.make inst slots

let solve ~grid ~routes ~kth ~sensitivity ~keff ~mode ~seed
    ?(deadline = Eda_guard.Deadline.none) ?cache ?pool () =
  Trace.span "phase2.solve" @@ fun () ->
  let members : (key, int list) Hashtbl.t = Hashtbl.create 256 in
  let net_regions : (int, key list) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun route ->
      let net = Route.net route in
      List.iter
        (fun key ->
          Hashtbl.replace members key
            (net :: Option.value (Hashtbl.find_opt members key) ~default:[]);
          Hashtbl.replace net_regions net
            (key :: Option.value (Hashtbl.find_opt net_regions net) ~default:[]))
        (Route.occupied grid route))
    routes;
  (* Each panel is an independent SINO instance with a panel-keyed RNG
     seed, so panels can be solved in any order (or concurrently) with
     identical results.  Key-sort for a stable worklist, fan out, then
     fill the table in index order. *)
  let panels =
    Hashtbl.fold (fun key nets acc -> (key, nets) :: acc) members []
    |> List.sort compare |> Array.of_list
  in
  let sigs : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let sig_mu = Mutex.create () in
  let req =
    Solver.request ~mode ~params:keff ~deadline ~fault_site:"phase2.solve" ~seed
      ()
  in
  (* panel.solve is recorded by the coordinator after the fan-out, from
     the solution and the payload the solving domain leaves in the
     panel's slot: the time, the cache disposition and the signature.
     Whether to journal is decided here, once, so a run without a
     journal allocates no payload. *)
  let jnl = Journal.enabled () in
  let payloads = if jnl then Array.make (Array.length panels) None else [||] in
  let solve_panel i =
    let (_, d), nets = panels.(i) in
    let t0 = Clock.now_ns () in
    let nets = Array.of_list (List.sort_uniq compare nets) in
    let kth_arr = Array.map kth nets in
    let inst =
      Instance.make ~nets ~kth:kth_arr ~sensitive:(Sensitivity.sensitive sensitivity)
    in
    let fallback best =
      Metrics.incr (c_fallbacks ());
      let fb = fallback_layout mode inst in
      match best with
      | Some l when not (Layout.feasible fb keff) -> l
      | Some _ | None -> fb
    in
    (* Order_only is the shield-free NO baseline: it ignores inductive
       bounds by design, so infeasibility is expected there and solve
       always accepts; only Min_area panels go through the retry ladder
       (inside Solver.solve).  A panel the ladder cannot make feasible,
       or whose solve crashed, degrades to the fallback layout. *)
    let layout, degraded, cache_note, sg =
      match mode with
      | Min_area when Eda_guard.Deadline.expired deadline ->
          (* the budget was gone before this panel was even attempted:
             take the conservative all-shield fallback immediately so
             degradation latency stays bounded by the panel count, not
             by full solves that would be thrown away anyway *)
          (fallback None, true, None, Instance.signature inst)
      | Min_area | Order_only -> (
          match Solver.solve ?cache req inst with
          | { Solver.acceptable = true; layout; degraded; cache = cn; signature; _ }
            ->
              (layout, degraded, cn, signature)
          | { Solver.degraded = true; layout; cache = cn; signature; _ } ->
              (* the deadline ran out mid-ladder: best-so-far *)
              (layout, true, cn, signature)
          | { Solver.layout; cache = cn; signature; _ } ->
              (fallback (Some layout), true, cn, signature)
          | exception Eda_guard.Error.Error (Eda_guard.Error.Worker_crash _) ->
              (fallback None, true, None, Instance.signature inst))
    in
    Metrics.incr (match d with Dir.H -> m_panels_h | Dir.V -> m_panels_v);
    Metrics.observe h_panel_nets (float_of_int (Array.length nets));
    Metrics.add m_shields (Layout.num_shields layout);
    note_signature ~sigs ~mu:sig_mu sg;
    let soln = soln_of_layout ~keff ~degraded inst layout in
    if jnl then begin
      let time_us = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e3 in
      payloads.(i) <- Some (time_us, cache_note, sg)
    end;
    soln
  in
  (* all domains bump the shared done-counter; only the coordinator's
     ticks reach the heartbeat (Progress is single-writer), so the line
     reflects total panels finished, not just its own *)
  let done_ = Atomic.make 0 in
  let solve_panel i =
    let s = solve_panel i in
    Atomic.incr done_;
    Eda_obs.Progress.tick ~items_total:(Array.length panels)
      ~items_done:(Atomic.get done_) ();
    s
  in
  (* a tight span around just the panel fan-out: the journal's summed
     panel.solve time_us must reconcile with this span (the enclosing
     phase2.solve span also carries worklist construction) *)
  let solns =
    Trace.span "phase2.panels" @@ fun () ->
    Eda_exec.parallel_map ?pool ~name:"phase2.panels" (Array.length panels)
      solve_panel
  in
  Array.iteri
    (fun i payload ->
      match payload with
      | None -> ()
      | Some (time_us, cache_note, sg) ->
          let (r, d), _ = panels.(i) and soln = solns.(i) in
          let n = Instance.size soln.inst in
          Journal.record "panel.solve"
            ([
               ("region", string_of_int r);
               ("dir", Dir.to_string d);
               ("sig", sg);
               ( "members",
                 String.concat ","
                   (List.init n (fun q ->
                        string_of_int (Instance.net_id soln.inst q))) );
             ]
            @ cache_dim cache_note)
            ~data:
              [
                ("nets", float_of_int n);
                ("time_us", time_us);
                ("shields", float_of_int (Layout.num_shields soln.layout));
              ]
            ~outcome:
              (if not soln.feasible then "infeasible"
               else if soln.degraded then "degraded"
               else "feasible"))
    payloads;
  (* the index is filled as the solution table always was (same size,
     same keys, same order), so [iter] visits panels in the same order *)
  let index = Hashtbl.create (Array.length panels) in
  Array.iteri (fun i (key, _) -> Hashtbl.replace index key i) panels;
  (if Eda_guard.Deadline.expired deadline then
     Eda_guard.Deadline.mark deadline ~phase:"sino");
  (match mode with
  | Min_area ->
      let n =
        Array.fold_left (fun acc s -> if s.feasible then acc else acc + 1) 0 solns
      in
      if n > 0 then Metrics.add (c_infeasible ()) n
  | Order_only -> ());
  {
    grid;
    keff;
    index;
    keys = Array.map fst panels;
    solns;
    net_regions;
    sigs;
    sig_mu;
    cache;
    seed;
  }

let panel t key = Hashtbl.find_opt t.index key
let num_panels t = Array.length t.keys
let panel_key t p = t.keys.(p)
let panel_soln t p = t.solns.(p)

let find t key = Option.map (panel_soln t) (panel t key)

let slot_of inst net =
  let rec go i =
    if i >= Instance.size inst then None
    else if Instance.net_id inst i = net then Some i
    else go (i + 1)
  in
  go 0

let k_of t ~net key =
  match find t key with
  | None -> 0.0
  | Some s -> (
      match slot_of s.inst net with Some i -> s.k.(i) | None -> 0.0)

let shields t key =
  match find t key with None -> 0 | Some s -> Layout.num_shields s.layout

let total_shields t =
  Array.fold_left (fun acc s -> acc + Layout.num_shields s.layout) 0 t.solns

let same_nets a b =
  Instance.size a = Instance.size b
  &&
  let rec go i =
    i >= Instance.size a
    || (Instance.net_id a i = Instance.net_id b i && go (i + 1))
  in
  go 0

let replace t key soln =
  match panel t key with
  | None -> invalid_arg "Phase2.replace: no such panel"
  | Some p ->
      if not (same_nets t.solns.(p).inst soln.inst) then
        invalid_arg "Phase2.replace: the panel's nets changed";
      t.solns.(p) <- soln

let resolve ?(deadline = Eda_guard.Deadline.none) ?net ?pass t key inst =
  let t0 = Clock.now_ns () in
  Metrics.incr m_resolves;
  Eda_guard.Fault.point "refine.resolve";
  (* warm-start from the current layout when the instance is the same net
     set with changed bounds (the Phase III case): Solver.solve runs the
     deterministic repair kernel then, keeping the ordering and the other
     nets' couplings stable.  Either way the solve goes through the choke
     point with the flow seed, so a re-solve whose content matches any
     earlier solve — here or in Phase II — is a cache hit. *)
  let warm =
    match find t key with
    | Some s when same_nets s.inst inst -> Some s.layout
    | Some _ | None -> None
  in
  let req =
    Solver.request ~mode:Solver.Min_area ~params:t.keff ~retries:0 ~deadline
      ~seed:t.seed ()
  in
  let result = Solver.solve ?cache:t.cache ?warm req inst in
  let layout = result.Solver.layout in
  let sg = result.Solver.signature in
  note_signature ~sigs:t.sigs ~mu:t.sig_mu sg;
  let soln = soln_of_layout ~keff:t.keff inst layout in
  if Journal.enabled () then begin
    let r, d = key in
    let time_us = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e3 in
    Journal.record "panel.resolve"
      ([
         ("region", string_of_int r);
         ("dir", Dir.to_string d);
         ("sig", sg);
       ]
      @ cache_dim result.Solver.cache
      @ (match net with
        | Some n -> [ ("net", string_of_int n) ]
        | None -> [])
      @ match pass with Some p -> [ ("pass", p) ] | None -> [])
      ~data:
        [
          ("time_us", time_us);
          ("shields", float_of_int (Layout.num_shields layout));
        ]
      ~outcome:(if soln.feasible then "feasible" else "infeasible")
  end;
  soln

let feasible t key =
  match find t key with None -> true | Some s -> s.feasible

(* panel numbers follow key order, so these come out sorted *)
let panels_where t pred =
  let out = ref [] in
  for p = num_panels t - 1 downto 0 do
    if pred t.solns.(p) then out := t.keys.(p) :: !out
  done;
  !out

let infeasible_panels t = panels_where t (fun s -> not s.feasible)
let degraded_panels t = panels_where t (fun s -> s.degraded)

let apply_shields usage t =
  Array.iteri
    (fun p s ->
      let r, d = t.keys.(p) in
      Usage.set_shields usage r d (Layout.num_shields s.layout))
    t.solns

let iter t f = Hashtbl.iter (fun key p -> f key t.solns.(p)) t.index

let regions_of_net t net =
  Option.value (Hashtbl.find_opt t.net_regions net) ~default:[]
