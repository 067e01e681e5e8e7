(* Instruments are registered lazily per phase name: a process that
   never routes exports no gc.* series, and repeated phases reuse the
   same cells through the registry's idempotent registration. *)
let g_minor phase = Metrics.gauge ~labels:[ ("phase", phase) ] "gc.minor_words"
let g_promoted phase = Metrics.gauge ~labels:[ ("phase", phase) ] "gc.promoted_words"
let g_major phase = Metrics.gauge ~labels:[ ("phase", phase) ] "gc.major_words"
let g_heap phase = Metrics.gauge ~labels:[ ("phase", phase) ] "gc.heap_words"
let c_minor phase = Metrics.counter ~labels:[ ("phase", phase) ] "gc.minor_collections"
let c_major phase = Metrics.counter ~labels:[ ("phase", phase) ] "gc.major_collections"
let c_compact phase = Metrics.counter ~labels:[ ("phase", phase) ] "gc.compactions"

(* Minor, promoted and major words allocated so far, from
   [Gc.minor_words] and [Gc.counters]: unlike the [Gc.stat] fields they
   include the domain's allocation not yet folded in at a collection, so
   a phase that fits inside one minor heap, or allocates one large block
   straight into the major heap, does not read as zero. *)
let words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), promoted, major)

let record name (minor0, promoted0, major0) (minor1, promoted1, major1)
    (before : Gc.stat) (after : Gc.stat) =
  Metrics.accum (g_minor name) (minor1 -. minor0);
  Metrics.accum (g_promoted name) (promoted1 -. promoted0);
  Metrics.accum (g_major name) (major1 -. major0);
  Metrics.set (g_heap name) (float_of_int after.Gc.heap_words);
  Metrics.add (c_minor name)
    (max 0 (after.Gc.minor_collections - before.Gc.minor_collections));
  Metrics.add (c_major name)
    (max 0 (after.Gc.major_collections - before.Gc.major_collections));
  Metrics.add (c_compact name) (max 0 (after.Gc.compactions - before.Gc.compactions))

let phase name f =
  let before = Gc.quick_stat () in
  let w0 = words () in
  Fun.protect
    ~finally:(fun () ->
      let w1 = words () in
      record name w0 w1 before (Gc.quick_stat ()))
    f
