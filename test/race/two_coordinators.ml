(* Two domains each coordinate their first parallel section on their own
   2-job pool at the same moment, then check that both sections ran
   every index and that each coordinator's registry counted exactly its
   own section.  Any escaping exception fails the process.  A first-use
   race only shows while the process-wide state is still untouched, so
   the runtest rule runs this in many fresh processes. *)
module Metrics = Eda_obs.Metrics

let n = 64

let coordinator ready () =
  Eda_exec.with_pool ~jobs:2 @@ fun pool ->
  Atomic.incr ready;
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  let hits = Atomic.make 0 in
  Eda_exec.parallel_iter ~pool n (fun _ -> Atomic.incr hits);
  (Atomic.get hits, Metrics.counter_total (Metrics.snapshot ()) "exec.sections")

let () =
  let ready = Atomic.make 0 in
  let a = Domain.spawn (coordinator ready) in
  let b = Domain.spawn (coordinator ready) in
  List.iter
    (fun (hits, sections) ->
      if hits <> n || sections <> 1 then begin
        Printf.eprintf "two_coordinators: %d/%d items, %d sections (want 1)\n"
          hits n sections;
        exit 1
      end)
    [ Domain.join a; Domain.join b ]
