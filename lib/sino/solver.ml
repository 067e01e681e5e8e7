module Rng = Eda_util.Rng
module Metrics = Eda_obs.Metrics
module Deadline = Eda_guard.Deadline

(* SINO solver telemetry: shields placed/dropped by the heuristic *)
let m_instances = Metrics.counter "sino.instances"
let m_inserted = Metrics.counter "sino.shields_inserted"
let m_removed = Metrics.counter "sino.shields_removed"
let m_swaps = Metrics.counter "sino.swap_improvements"
let m_repairs = Metrics.counter "sino.repairs"

(* Internal working form: slots as an int array, net index >= 0, shield as
   [-1].  All hot-loop deltas are computed locally on this form; the
   result is wrapped in a Layout only at the end. *)
let shield = -1

let to_layout inst slots =
  Layout.make inst
    (Array.map (fun s -> if s = shield then Layout.Shield else Layout.Net s) slots)

let slots_of_layout layout =
  Array.map
    (function Layout.Shield -> shield | Layout.Net i -> i)
    (Layout.slots layout)

(* K of the net on track [t]: rightwards, then leftwards, nearest first
   (the order the sum has always taken), each pair read from the Keff
   coupling table.  Two plain loops keep the sum in a register. *)
let k_at inst p slots t =
  let n = Array.length slots in
  let i = slots.(t) in
  let table = p.Keff.coupling and w1 = p.Keff.window + 1 in
  let total = ref 0.0 and shields = ref 0 in
  for q = t + 1 to min (n - 1) (t + p.Keff.window) do
    let s = slots.(q) in
    if s = shield then incr shields
    else if Instance.sens inst i s then
      total := !total +. table.(((q - t) * w1) + !shields)
  done;
  shields := 0;
  for q = t - 1 downto max 0 (t - p.Keff.window) do
    let s = slots.(q) in
    if s = shield then incr shields
    else if Instance.sens inst i s then
      total := !total +. table.(((t - q) * w1) + !shields)
  done;
  !total

let cap_violations_raw inst slots =
  let cnt = ref 0 in
  for t = 0 to Array.length slots - 2 do
    let a = slots.(t) and b = slots.(t + 1) in
    if a >= 0 && b >= 0 && Instance.sens inst a b then incr cnt
  done;
  !cnt

(* Greedy sequencing: start from the most-constrained (highest sensitive
   degree) net, then repeatedly append a net not sensitive to the last one,
   preferring high remaining degree so flexible nets stay available for the
   end of the sequence. *)
let greedy_order rng inst =
  let n = Instance.size inst in
  if n = 0 then [||]
  else begin
    let degree i =
      let d = ref 0 in
      for j = 0 to n - 1 do
        if Instance.sens inst i j then incr d
      done;
      !d
    in
    let deg = Array.init n degree in
    let remaining = Array.init n (fun i -> i) in
    Rng.shuffle rng remaining;
    let used = Array.make n false in
    let order = Array.make n 0 in
    let start =
      Array.fold_left
        (fun best i -> if deg.(i) > deg.(best) then i else best)
        remaining.(0) remaining
    in
    order.(0) <- start;
    used.(start) <- true;
    for k = 1 to n - 1 do
      let last = order.(k - 1) in
      let best = ref (-1) and best_key = ref min_int in
      Array.iter
        (fun i ->
          if not used.(i) then begin
            (* primary: avoid sensitivity to the last slot; secondary:
               place high-degree nets while there is still freedom *)
            let key = (if Instance.sens inst last i then -10000 else 0) + deg.(i) in
            if key > !best_key then begin
              best_key := key;
              best := i
            end
          end)
        remaining;
      order.(k) <- !best;
      used.(!best) <- true
    done;
    order
  end

(* Change in adjacent-sensitive-pair count if tracks a < b are swapped:
   the distinct pairs among (a-1,a), (a,a+1), (b-1,b) and (b,b+1) that
   lie on the tracks — (a,a+1) is (b-1,b) when b = a+1. *)
let swap_cap_delta inst slots a b =
  let n = Array.length slots in
  let bad x y =
    x >= 0 && y < n
    && slots.(x) >= 0 && slots.(y) >= 0
    && Instance.sens inst slots.(x) slots.(y)
  in
  let count () =
    Bool.to_int (bad (a - 1) a)
    + Bool.to_int (bad a (a + 1))
    + (if b - 1 = a then 0 else Bool.to_int (bad (b - 1) b))
    + Bool.to_int (bad b (b + 1))
  in
  let before = count () in
  let tmp = slots.(a) in
  slots.(a) <- slots.(b);
  slots.(b) <- tmp;
  let after = count () in
  let tmp = slots.(a) in
  slots.(a) <- slots.(b);
  slots.(b) <- tmp;
  after - before

let swap_improve ?(deadline = Deadline.none) inst slots ~passes =
  let n = Array.length slots in
  let improved = ref true and pass = ref 0 in
  (* checkpoint: each pass leaves a valid permutation, so stopping between
     passes only costs quality *)
  while !improved && !pass < passes && not (Deadline.expired deadline) do
    improved := false;
    incr pass;
    for a = 0 to n - 2 do
      for b = a + 1 to n - 1 do
        if swap_cap_delta inst slots a b < 0 then begin
          let tmp = slots.(a) in
          slots.(a) <- slots.(b);
          slots.(b) <- tmp;
          Metrics.incr m_swaps;
          improved := true
        end
      done
    done
  done

let order_only rng inst =
  Metrics.incr m_instances;
  let slots = greedy_order rng inst in
  swap_improve inst slots ~passes:4;
  to_layout inst slots

(* --- min-area SINO ------------------------------------------------- *)

let insert_at slots pos =
  let n = Array.length slots in
  Array.init (n + 1) (fun q ->
      if q < pos then slots.(q) else if q = pos then shield else slots.(q - 1))

(* Sum of K-bound violations for nets within [window] tracks of [center]. *)
let local_violation inst p slots center =
  let n = Array.length slots in
  let lo = max 0 (center - p.Keff.window - 1) in
  let hi = min (n - 1) (center + p.Keff.window + 1) in
  let s = ref 0.0 in
  for t = lo to hi do
    if slots.(t) >= 0 then begin
      let excess = k_at inst p slots t -. Instance.kth inst slots.(t) in
      if excess > 0.0 then s := !s +. excess
    end
  done;
  !s

let worst_violator inst p slots =
  let n = Array.length slots in
  let best = ref (-1) and worst = ref 1e-9 in
  for t = 0 to n - 1 do
    if slots.(t) >= 0 then begin
      let excess = k_at inst p slots t -. Instance.kth inst slots.(t) in
      if excess > !worst then begin
        worst := excess;
        best := t
      end
    end
  done;
  !best

(* Capacitive repair: a shield between every remaining adjacent sensitive
   pair. *)
let cap_fix inst slots =
  let rec go s =
    let len = Array.length s in
    let rec find t =
      if t >= len - 1 then None
      else if s.(t) >= 0 && s.(t + 1) >= 0 && Instance.sens inst s.(t) s.(t + 1)
      then Some (t + 1)
      else find (t + 1)
    in
    match find 0 with
    | Some pos ->
        Metrics.incr m_inserted;
        go (insert_at s pos)
    | None -> s
  in
  go slots

(* Inductive repair: shields strictly reduce the coupling of every pair
   that spans them, so the total violation is non-increasing and reaches
   zero; place each shield at the locally best gap near the worst
   violator. *)
let inductive_fix ?(deadline = Deadline.none) inst params slots =
  let max_passes = 10 * Instance.size inst in
  let slots = ref slots in
  let iter = ref 0 in
  let continue_ = ref true in
  (* checkpoint: every iteration inserts one shield and strictly shrinks
     the violation sum, so the partial result is the best-so-far repair *)
  while !continue_ && !iter < max_passes && not (Deadline.expired deadline) do
    incr iter;
    let s = !slots in
    match worst_violator inst params s with
    | -1 -> continue_ := false
    | tv ->
        let len = Array.length s in
        (* candidate gaps: near the violator is where a shield pays off;
           +/-5 tracks covers the bulk of k1^d coupling *)
        let reach = min 5 params.Keff.window in
        let lo = max 0 (tv - reach) in
        let hi = min len (tv + reach + 1) in
        let best_pos = ref tv and best_score = ref infinity in
        for g = lo to hi do
          let trial = insert_at s g in
          (* score around the violator's (shifted) position so every
             candidate is judged on the same neighbourhood — scoring
             around g itself lets edge candidates hide the violator
             cluster outside their window and win with a no-op *)
          let center = if g <= tv then tv + 1 else tv in
          let score = local_violation inst params trial center in
          if score < !best_score then begin
            best_score := score;
            best_pos := g
          end
        done;
        Metrics.incr m_inserted;
        slots := insert_at s !best_pos
  done;
  !slots

(* Clean-up: drop any shield whose removal keeps feasibility. *)
let shield_cleanup ?(deadline = Deadline.none) inst params slots =
  let slots = ref slots in
  let removed = ref true in
  (* checkpoint: cleanup only drops redundant shields — skipping the rest
     of it is conservative (more shields, same feasibility) *)
  while !removed && not (Deadline.expired deadline) do
    removed := false;
    let s = !slots in
    let len = Array.length s in
    let t = ref (len - 1) in
    while !t >= 0 do
      if s.(!t) = shield then begin
        let trial =
          Array.init (len - 1) (fun q -> if q < !t then s.(q) else s.(q + 1))
        in
        let ok =
          cap_violations_raw inst trial = 0
          && local_violation inst params trial !t = 0.0
        in
        if ok then begin
          slots := trial;
          Metrics.incr m_removed;
          removed := true;
          t := -1 (* restart scan on the shorter array *)
        end
        else decr t
      end
      else decr t
    done
  done;
  !slots

let min_area ?(params = Keff.default) ?(deadline = Deadline.none) rng inst =
  Metrics.incr m_instances;
  if Instance.size inst = 0 then to_layout inst [||]
  else begin
    (* greedy_order and cap_fix always run (they are cheap and establish
       a valid, capacitively clean layout); the improvement stages check
       the deadline at their own pass boundaries *)
    let slots = greedy_order rng inst in
    swap_improve ~deadline inst slots ~passes:4;
    let slots = cap_fix inst slots in
    let slots = inductive_fix ~deadline inst params slots in
    let slots = shield_cleanup ~deadline inst params slots in
    to_layout inst slots
  end

let repair ?(params = Keff.default) ?(deadline = Deadline.none) inst layout =
  Metrics.incr m_repairs;
  if Instance.size inst = 0 then to_layout inst [||]
  else begin
    let slots = cap_fix inst (slots_of_layout layout) in
    let slots = inductive_fix ~deadline inst params slots in
    let slots = shield_cleanup ~deadline inst params slots in
    to_layout inst slots
  end

(* ---------------- exact min-shield oracle --------------------------- *)

(* Depth-first branch and bound laying tracks left to right.  Each step
   appends a net not sensitive to the previous track's net, or a shield:
   never first, and never more than [window] in a row, which already
   zeroes every coupling across the gap (so a layout is always found).
   A pair's coupling is final once both nets are placed and couplings
   are non-negative, so a branch dies as soon as some K_i exceeds its
   bound (Layout's 1e-12 tolerance), or once its shields plus those the
   unplaced nets still need reach the best layout found.  The search
   stops early at the sound lower bound.  It is exponential in the net
   count: on random panels with Kth in [0.05, 1.25) and an x86-64 core,
   the worst of 200 at 10 nets took 0.13 s, the worst of 40 at 11, 0.67 s. *)
let exact ?(params = Keff.default) inst =
  let n = Instance.size inst in
  if n > 10 then invalid_arg "Solver.exact: more than 10 nets";
  for i = 0 to n - 1 do
    if not (Instance.kth inst i >= 0.0) then
      invalid_arg "Solver.exact: negative Kth"
  done;
  let w = params.Keff.window and lb = Bound.shield_lower_bound ~params inst in
  let slots = Array.make (n + (max 0 (n - 1) * w)) shield in
  (* k.(d) = every net's K once the first d nets are placed *)
  let k = Array.make_matrix (n + 1) n 0.0 in
  let best = ref None and best_shields = ref max_int in
  let improves s = s < !best_shields && !best_shields > lb in
  (* ins.(v) = the nets not sensitive to v, as a bit set *)
  let ins =
    Array.init n (fun v ->
        List.fold_left
          (fun m q -> if q = v || Instance.sens inst v q then m else m lor (1 lsl q))
          0 (List.init n Fun.id))
  in
  (* Shields still needed to lay the unplaced nets [free] after [tail]
     (the last track's net, -1 after a shield): shields separate runs in
     which neighbours are not sensitive, each run has two ends, and the
     tail and every net with at most one insensitive partner left must
     take one. *)
  let shields_to_come free tail =
    let pool = if tail >= 0 then free lor (1 lsl tail) else free in
    let ends = ref 0 in
    for v = 0 to n - 1 do
      let partners = ins.(v) land pool in
      if pool land (1 lsl v) = 0 then ()
      else if partners = 0 then ends := !ends + 2
      else if partners land (partners - 1) = 0 || v = tail then incr ends
    done;
    max 0 (((!ends + 1) / 2) - 1)
  in
  let rec go len depth free shields run =
    let tail = if run = 0 && len > 0 then slots.(len - 1) else -1 in
    if free = 0 then begin
      let l = to_layout inst (Array.sub slots 0 len) in
      if Layout.feasible l params then begin
        best := Some l;
        best_shields := shields
      end
    end
    else if improves (shields + shields_to_come free tail) then begin
      for j = 0 to n - 1 do
        if
          free land (1 lsl j) <> 0
          && (tail < 0 || ins.(tail) land (1 lsl j) <> 0)
          && improves shields
        then begin
          let kn = k.(depth + 1) and between = ref 0 and ok = ref true in
          Array.blit k.(depth) 0 kn 0 n;
          for t = len - 1 downto max 0 (len - w) do
            let i = slots.(t) in
            if i = shield then incr between
            else if Instance.sens inst i j then begin
              let c =
                params.Keff.coupling.(((len - t) * (w + 1)) + !between)
              in
              kn.(i) <- kn.(i) +. c;
              kn.(j) <- kn.(j) +. c;
              ok := !ok && kn.(i) <= Instance.kth inst i +. Layout.k_tolerance
            end
          done;
          if !ok && kn.(j) <= Instance.kth inst j +. Layout.k_tolerance then begin
            slots.(len) <- j;
            go (len + 1) (depth + 1) (free lxor (1 lsl j)) shields 0
          end
        end
      done;
      if len > 0 && run < w && improves (shields + 1) then begin
        slots.(len) <- shield;
        go (len + 1) depth free (shields + 1) (run + 1)
      end
    end
  in
  go 0 0 ((1 lsl n) - 1) 0 0;
  Option.get !best

let shields_needed ?params rng inst = Layout.num_shields (min_area ?params rng inst)

(* ---------------- the solve choke point ----------------------------- *)

type mode = Order_only | Min_area

type request = {
  mode : mode;
  params : Keff.params;
  seed : int;
  retries : int;
  deadline : Deadline.t;
  fault_site : string option;
}

let request ?(mode = Min_area) ?(params = Keff.default) ?(retries = 2)
    ?(deadline = Deadline.none) ?fault_site ~seed () =
  { mode; params; seed; retries; deadline; fault_site }

type disposition = Hit | Miss | Stored

type solution = {
  layout : Layout.t;
  acceptable : bool;
  degraded : bool;
  cache : disposition option;
  signature : string;
}

(* guard.retries is looked up at the event so clean runs export a
   byte-identical metrics set (see Phase2's matching counters) *)
let c_retries () = Metrics.counter "guard.retries"

(* Solver-effort accounting around the kernel call: the whole solve runs
   on one domain, so the deltas of this domain's counter cells are
   exactly this solve's work.  The deltas are stored with the cache
   entry and replayed on every hit, which keeps the cumulative sino.*
   series equal to a cache-off run's for any hit/miss schedule. *)
type effort_mark = { i0 : int; ins0 : int; rem0 : int; sw0 : int; rep0 : int }

let effort_mark () =
  {
    i0 = Metrics.counter_value m_instances;
    ins0 = Metrics.counter_value m_inserted;
    rem0 = Metrics.counter_value m_removed;
    sw0 = Metrics.counter_value m_swaps;
    rep0 = Metrics.counter_value m_repairs;
  }

let effort_since mark ~retries =
  {
    Cache.instances = Metrics.counter_value m_instances - mark.i0;
    inserted = Metrics.counter_value m_inserted - mark.ins0;
    removed = Metrics.counter_value m_removed - mark.rem0;
    swaps = Metrics.counter_value m_swaps - mark.sw0;
    repairs = Metrics.counter_value m_repairs - mark.rep0;
    retries;
  }

let replay_effort (e : Cache.effort) =
  Metrics.add m_instances e.Cache.instances;
  Metrics.add m_inserted e.Cache.inserted;
  Metrics.add m_removed e.Cache.removed;
  Metrics.add m_swaps e.Cache.swaps;
  Metrics.add m_repairs e.Cache.repairs;
  if e.Cache.retries > 0 then Metrics.add (c_retries ()) e.Cache.retries

(* canonical slot ints -> layout on the original labeling *)
let layout_on orig canon slots =
  let perm = canon.Instance.perm in
  Layout.make orig
    (Array.map
       (fun s -> if s = shield then Layout.Shield else Layout.Net perm.(s))
       slots)

(* 64-bit FNV-1a over ints — digests the warm slots into the cache key *)
let fnv_ints a =
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun v ->
      let x = ref (Int64.of_int v) in
      for _ = 1 to 8 do
        let b = Int64.logand !x 0xFFL in
        h := Int64.mul (Int64.logxor !h b) 0x100000001b3L;
        x := Int64.shift_right_logical !x 8
      done)
    a;
  Printf.sprintf "%016Lx" !h

(* The key covers every input the solution depends on — except the retry
   budget: the first-feasible attempt index is itself content-determined
   (streams depend only on signature, seed, attempt), so one entry
   serves every budget that reaches its recorded depth (the [admit]
   check at lookup). *)
let key_of req ~signature ~warm_digest =
  let p = req.params in
  Printf.sprintf "%s|%s|k1=%h;sb=%h;w=%d|s=%d%s" signature
    (match req.mode with Order_only -> "oo" | Min_area -> "ma")
    p.Keff.k1 p.Keff.shield_block p.Keff.window req.seed
    (match warm_digest with None -> "" | Some d -> "|w=" ^ d)

let solve ?cache ?warm req inst =
  let canon = Instance.canonicalize inst in
  let cinst = canon.Instance.inst in
  let signature = canon.Instance.signature in
  (* inverse of perm: original local index -> canonical position *)
  let inv =
    let p = canon.Instance.perm in
    let a = Array.make (Array.length p) 0 in
    Array.iteri (fun c orig -> a.(orig) <- c) p;
    a
  in
  let canon_warm =
    Option.map
      (fun l ->
        Array.map
          (fun s -> if s = shield then shield else inv.(s))
          (slots_of_layout l))
      warm
  in
  let warm_digest = Option.map fnv_ints canon_warm in
  let key = key_of req ~signature ~warm_digest in
  let cacheable = req.mode = Min_area && cache <> None in
  let cached =
    if cacheable then
      Option.bind cache (fun c ->
          Cache.find c ~params:req.params ~key ~inst:cinst ?warm:canon_warm
            ~admit:(fun v -> v.Cache.effort.Cache.retries <= req.retries)
            ())
    else None
  in
  match cached with
  | Some v ->
      replay_effort v.Cache.effort;
      {
        layout = layout_on inst canon v.Cache.slots;
        acceptable = true;
        degraded = false;
        cache = Some Hit;
        signature;
      }
  | None -> (
      let mark = effort_mark () in
      let fault () = Option.iter Eda_guard.Fault.point req.fault_site in
      let acceptable l =
        match req.mode with
        | Order_only -> true
        | Min_area -> Layout.feasible l req.params
      in
      let finish ~acceptable:ok ~degraded ~retries ~crashed clayout =
        let cslots = slots_of_layout clayout in
        let store_ok =
          cacheable && ok && (not degraded) && (not crashed)
          && not (Deadline.expired req.deadline)
        in
        if store_ok then
          Option.iter
            (fun c ->
              Cache.store c ~key ~inst:cinst ?warm:canon_warm
                { Cache.slots = cslots; effort = effort_since mark ~retries })
            cache;
        {
          layout = layout_on inst canon cslots;
          acceptable = ok;
          degraded;
          cache =
            (if not cacheable then None
             else if store_ok then Some Stored
             else Some Miss);
          signature;
        }
      in
      match warm with
      | Some _ ->
          (* Phase3 re-solve: deterministic positional repair from the
             warm layout — no RNG, no ladder.  Repair commutes with
             relabeling, so running it on the canonical form changes
             nothing except making the result content-addressed. *)
          fault ();
          let cl =
            repair ~params:req.params ~deadline:req.deadline cinst
              (to_layout cinst (Option.get canon_warm))
          in
          finish ~acceptable:(acceptable cl) ~degraded:false ~retries:0
            ~crashed:false cl
      | None ->
          let attempt i =
            (* content-derived stream: identical panels get identical
               solutions wherever (and in whichever run) they appear *)
            let rng = Rng.create (Hashtbl.hash (signature, req.seed, i)) in
            fault ();
            match req.mode with
            | Order_only -> order_only rng cinst
            | Min_area ->
                min_area ~params:req.params ~deadline:req.deadline rng cinst
          in
          let rec run i ~crashed =
            match attempt i with
            | l when acceptable l ->
                finish ~acceptable:true ~degraded:false ~retries:i ~crashed l
            | l ->
                if Deadline.expired req.deadline then
                  (* out of time: keep the best-so-far, tagged degraded *)
                  finish ~acceptable:false ~degraded:true ~retries:i ~crashed l
                else if i < req.retries then begin
                  Metrics.incr (c_retries ());
                  run (i + 1) ~crashed
                end
                else
                  (* exhausted: the caller applies its policy *)
                  finish ~acceptable:false ~degraded:false ~retries:i ~crashed
                    l
            | exception
                Eda_guard.Error.Error (Eda_guard.Error.Worker_crash _)
              when i < req.retries ->
                Metrics.incr (c_retries ());
                run (i + 1) ~crashed:true
          in
          run 0 ~crashed:false)

