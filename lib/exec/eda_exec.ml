module Metrics = Eda_obs.Metrics
module Trace = Eda_obs.Trace

let default_jobs ?(cap = 8) () =
  max 1 (min (max 1 cap) (Domain.recommended_domain_count ()))

(* One parallel section.  Indices [Atomic.fetch_and_add cursor chunk]
   hand out left-to-right; every domain (workers and the coordinator)
   steals until the cursor passes [hi].  Failures drain the cursor so the
   section ends early; the failure starting at the lowest index wins. *)
type job = {
  hi : int;
  chunk : int;
  cursor : int Atomic.t;
  body : int -> unit;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  mutable remaining : int;  (** workers yet to finish this section *)
  shards : Metrics.snapshot option array;
      (** each worker slot's recording of this section *)
  busy_ns : int64 array;
      (** per-slot busy time this section; each slot is written only by
          its own domain, read by the coordinator after the barrier *)
}

type t = {
  n_jobs : int;
  owner : int;  (** Domain.self of the creator; sections run from there *)
  mu : Mutex.t;
  work : Condition.t;  (** new section posted, or pool closing *)
  idle : Condition.t;  (** a worker finished the current section *)
  mutable job : job option;
  mutable generation : int;
  mutable closing : bool;
  mutable busy : bool;  (** a section is live — nested calls go sequential *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

(* The section instruments register at use, so purely sequential runs
   export no exec.* series at all — jobs=1 output stays byte-identical
   to the pre-parallel code. *)
let m_sections () = Metrics.counter "exec.sections"

(* one exec.section_items series per section name, so a speedup
   investigation can attribute granularity per phase *)
let m_section_items name =
  Metrics.histogram ~labels:[ ("section", name) ] "exec.section_items"

(* max busy / mean busy across the slots of one section: 1.0 is a
   perfectly balanced section, large values mean one domain dragged *)
let m_imbalance () = Metrics.histogram "exec.imbalance"

type dctrs = {
  chunks : Metrics.counter;
  items : Metrics.counter;
  steals : Metrics.counter;  (** chunks beyond the domain's first per section *)
  busy : Metrics.counter;  (** exec.domain_busy_ns *)
}

let domain_counters slot =
  let labels = [ ("domain", string_of_int slot) ] in
  {
    chunks = Metrics.counter ~labels "exec.chunks";
    items = Metrics.counter ~labels "exec.items";
    steals = Metrics.counter ~labels "exec.steals";
    busy = Metrics.counter ~labels "exec.domain_busy_ns";
  }

let record_failure pool job start e bt =
  Mutex.lock pool.mu;
  (match job.failed with
  | Some (s0, _, _) when s0 <= start -> ()
  | Some _ | None -> job.failed <- Some (start, e, bt));
  Mutex.unlock pool.mu;
  (* stop handing out work; in-flight chunks still finish *)
  Atomic.set job.cursor job.hi

let steal pool job ~slot ~ctrs =
  let t0 = Eda_obs.Clock.now_ns () in
  let taken = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add job.cursor job.chunk in
    if start >= job.hi then continue_ := false
    else begin
      let stop = min job.hi (start + job.chunk) in
      incr taken;
      Metrics.incr ctrs.chunks;
      if !taken > 1 then Metrics.incr ctrs.steals;
      Metrics.add ctrs.items (stop - start);
      try
        (* fault site: an injected crash here exercises the same drain +
           typed-reraise path as a real worker failure *)
        Eda_guard.Fault.point "exec.worker";
        for i = start to stop - 1 do
          job.body i
        done
      with e -> record_failure pool job start e (Printexc.get_raw_backtrace ())
    end
  done;
  let busy = Int64.sub (Eda_obs.Clock.now_ns ()) t0 in
  job.busy_ns.(slot) <- busy;
  Metrics.add ctrs.busy (Int64.to_int busy)

let worker pool slot () =
  let ctrs = domain_counters slot in
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mu;
    while (not pool.closing) && pool.generation = !seen do
      Condition.wait pool.work pool.mu
    done;
    if pool.closing then begin
      running := false;
      Mutex.unlock pool.mu
    end
    else begin
      seen := pool.generation;
      let job = Option.get pool.job in
      Mutex.unlock pool.mu;
      (* the section's metrics, in a registry of its own, for the
         coordinator to replay *)
      let (), shard = Metrics.record (fun () -> steal pool job ~slot ~ctrs) in
      Mutex.lock pool.mu;
      job.shards.(slot) <- Some shard;
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast pool.idle;
      Mutex.unlock pool.mu
    end
  done

let create ~jobs:n =
  let n = max 1 n in
  let pool =
    {
      n_jobs = n;
      owner = (Domain.self () :> int);
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      generation = 0;
      closing = false;
      busy = false;
      domains = [];
    }
  in
  if n > 1 then
    pool.domains <- List.init (n - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let shutdown pool =
  Mutex.lock pool.mu;
  pool.closing <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mu;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let sequential n body =
  for i = 0 to n - 1 do
    body i
  done

let default_chunk ~jobs n = max 1 ((n + (jobs * 8) - 1) / (jobs * 8))

let run_range pool ?(name = "section") ?chunk n body =
  if n <= 0 then ()
  else if
    pool.n_jobs = 1 || pool.busy || (Domain.self () :> int) <> pool.owner
  then sequential n body
  else begin
    pool.busy <- true;
    Fun.protect ~finally:(fun () -> pool.busy <- false) @@ fun () ->
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk ~jobs:pool.n_jobs n
    in
    Metrics.incr (m_sections ());
    Metrics.observe (m_section_items name) (float_of_int n);
    Trace.span_args "exec.parallel"
      [
        ("section", name);
        ("items", string_of_int n);
        ("jobs", string_of_int pool.n_jobs);
        ("chunk", string_of_int chunk);
      ]
    @@ fun () ->
    let job =
      {
        hi = n;
        chunk;
        cursor = Atomic.make 0;
        body;
        failed = None;
        remaining = pool.n_jobs - 1;
        shards = Array.make pool.n_jobs None;
        busy_ns = Array.make pool.n_jobs 0L;
      }
    in
    let ctrs = domain_counters 0 in
    Mutex.lock pool.mu;
    pool.job <- Some job;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mu;
    (* the coordinator is domain slot 0 and steals like everyone else *)
    steal pool job ~slot:0 ~ctrs;
    Mutex.lock pool.mu;
    while job.remaining > 0 do
      Condition.wait pool.idle pool.mu
    done;
    pool.job <- None;
    Mutex.unlock pool.mu;
    (* deterministic ordered reduction: shards replay in slot order,
       not completion order *)
    Array.iter (Option.iter Metrics.replay) job.shards;
    (let sum =
       Array.fold_left (fun s b -> s +. Int64.to_float b) 0.0 job.busy_ns
     in
     let mx = Array.fold_left (fun m b -> Float.max m (Int64.to_float b)) 0.0 job.busy_ns in
     let mean = sum /. float_of_int pool.n_jobs in
     if mean > 0.0 then Metrics.observe (m_imbalance ()) (mx /. mean));
    match job.failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_iter ?pool ?name ?chunk n body =
  match pool with
  | None -> sequential n body
  | Some p -> run_range p ?name ?chunk n body

let parallel_map ?pool ?name ?chunk n f =
  match pool with
  | None -> Array.init n f
  | Some p when p.n_jobs = 1 -> Array.init n f
  | Some p ->
      if n <= 0 then [||]
      else begin
        let out = Array.make n None in
        run_range p ?name ?chunk n (fun i -> out.(i) <- Some (f i));
        Array.map
          (function
            | Some v -> v
            | None ->
                (* only reachable if a failure drained the range, and then
                   run_range re-raised before we got here *)
                assert false)
          out
      end

let map_array ?pool ?name ?chunk f arr =
  parallel_map ?pool ?name ?chunk (Array.length arr) (fun i -> f arr.(i))
