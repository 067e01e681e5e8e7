(* The benchmark's workloads (BENCHMARK.json names them; README.md says
   why each was chosen).

   Inputs: each run generates one netlist per workload with the
   shipped `gsino_run gen`, from the workload's pinned placement seed.
   The run's --seed picks the sensitivity assignment and flow seed of
   every op from the workload's [pool] of op seeds.  Placement is pinned
   because it alone moves an op's cost by 14-16% between seeds.  The
   sensitivity seed moves it too, and a CLI run holds only three to five
   ops, too few to average that out.  So the CLI pools keep the op seeds
   that pass the correctness gate and whose op cost lies within 4% of
   the median over the seeds scanned (README.md, "Inputs"); the seed
   then varies the inputs without varying how much work a run measures.
   serve-warm averages over dozens of requests a run and draws from
   every seed of 1..200.

   cli-dense-nc pins placement 2, not 7: on ibm04 placement 7, 6 of 32
   sensitivity seeds end with a GSL0028 lint error (refinement pass 2
   takes a panel below the clique bound computed from the Phase-I
   budget), against 1 of 96 on placement 2 (seed 40). *)
module Flow = Gsino.Flow
module Protocol = Eda_serve.Protocol
module Sensitivity = Eda_netlist.Sensitivity

type mode = Cli | Serve

type t = {
  name : string;
  mode : mode;
  circuit : string;
  scale : float;
  rate : float;
  router : Flow.router;
  budgeting : Flow.budgeting;
  jobs : int;
  placement : int;  (** seed of the generated placement *)
  reference : int;
      (** op seed of the quality reference, whose outputs are the
          gsino_shields / isino_shields / gsino_wire_mm metrics: pinned
          so they are exact, comparable numbers on every run, and outside
          the pool so the daemon never serves it as window traffic *)
  pool : int array;  (** the op seeds a run draws from *)
}

(* A CLI run rotates over this many op seeds of the pool, so an op seed
   recurs once a window holds more ops and its summary must repeat. *)
let cli_variants = 4

(* cli-bench-id: ibm01 @ 0.05, placement 7, seeds 0-40 scanned;
   cli-dense-nc: ibm04 @ 0.05, placement 2, seeds 0-39 scanned.  The
   reference is one of the seeds in the band, taken out of the pool. *)
let bench_id_pool = [| 3; 6; 13; 14; 15; 17; 18; 20; 22; 23; 27; 30; 31; 33; 34; 35; 36; 37 |]

let dense_nc_pool =
  [|
    3; 4; 5; 6; 7; 8; 9; 11; 13; 17; 18; 19; 20; 21; 23; 26; 28; 30; 31; 32; 33; 34; 36; 37; 38;
    39;
  |]

let all =
  let bench_id =
    {
      name = "cli-bench-id";
      mode = Cli;
      circuit = "ibm01";
      scale = 0.05;
      rate = 0.30;
      router = Flow.Iterative_deletion;
      budgeting = Flow.Uniform;
      jobs = 1;
      placement = 7;
      reference = 0;
      pool = bench_id_pool;
    }
  in
  [
    bench_id;
    {
      bench_id with
      name = "cli-dense-nc";
      circuit = "ibm04";
      rate = 0.5;
      router = Flow.Negotiated;
      budgeting = Flow.Route_aware;
      jobs = 2;
      placement = 2;
      reference = 22;
      pool = dense_nc_pool;
    };
    (* ibm01 @ 0.02, the CI smoke size.  Every request carries a seed
       the daemon has not served: near-identical inputs (one netlist, a
       new sensitivity assignment each time), so the shared panel cache
       answers only the panels that recur across them. *)
    {
      bench_id with
      name = "serve-warm";
      mode = Serve;
      scale = 0.02;
      reference = 0;
      pool = Array.init 200 succ;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The [k]-th op seed of a run with seed [seed]: pool entries from
   index [seed] on, wrapping at the pool's end.  Daemon request [k]
   uses it directly, so no two requests share a seed until the pool
   wraps, 200 requests in. *)
let op_seed w ~seed k =
  let n = Array.length w.pool in
  w.pool.((((seed + k) mod n) + n) mod n)

(* CLI op [i] after the reference rotates over the run's first
   [cli_variants] op seeds. *)
let cli_seed w ~seed i = op_seed w ~seed (i mod cli_variants)

let sensitivity w ~seed = Sensitivity.make ~seed:(seed lxor 0xbeef) ~rate:w.rate

let router_name = function Flow.Iterative_deletion -> "id" | Flow.Negotiated -> "nc"

let budgeting_name = function
  | Flow.Uniform -> "uniform"
  | Flow.Route_aware -> "route-aware"

let gen_args w ~out =
  [
    "gen"; "-c"; w.circuit; "-s"; Printf.sprintf "%g" w.scale; "--seed";
    string_of_int w.placement; "-o"; out;
  ]

let run_args w ~netlist ~seed ~metrics =
  [
    "run"; "--netlist"; netlist; "--seed"; string_of_int seed; "-r";
    Printf.sprintf "%g" w.rate; "--router"; router_name w.router;
    "--budgeting"; budgeting_name w.budgeting; "--jobs"; string_of_int w.jobs;
    "-q"; "--metrics"; metrics;
  ]

(* The Flow.Config a gsino_run op of this workload builds for [kind]. *)
let config w ~seed kind =
  {
    Flow.Config.default with
    Flow.Config.kind;
    router = w.router;
    budgeting = w.budgeting;
    seed;
    jobs = w.jobs;
  }

let route_options w ~seed ?(kind = Flow.Gsino) artifacts =
  {
    Protocol.kind;
    router = w.router;
    budgeting = w.budgeting;
    seed;
    rate = w.rate;
    deadline_ms = 0;
    artifacts;
  }
