(* Content-addressed panel cache: LRU mechanics, verified lookups, the
   solver's canonical remapping (cache-on ≡ cache-off, DESIGN §10) and
   the on-disk gsino-panelcache-v1 store. *)
open Eda_sino
module Rng = Eda_util.Rng

let k = Keff.default

(* default: no sensitivities, so the shield lower bound is 0 and the
   synthetic zero-shield entries below pass the find cross-check *)
let mk_inst ?(kth = 1.0) ?(sensitive = fun _ _ -> false) n =
  Instance.make
    ~nets:(Array.init n (fun i -> i))
    ~kth:(Array.make n kth) ~sensitive

let sym_sens seed p i j = i <> j && Rng.pair_hash ~seed (min i j) (max i j) < p

let effort0 =
  {
    Cache.instances = 1;
    inserted = 0;
    removed = 0;
    swaps = 0;
    repairs = 0;
    retries = 0;
  }

(* slots arrays must be valid solutions (each net exactly once) or the
   permutation check in find/save would reject them *)
let ident_slots n = Array.init n (fun i -> i)

let find c ~key ~inst = Cache.find c ~params:k ~key ~inst ()

(* ---------------- LRU mechanics ---------------- *)

let test_hit_miss () =
  let c = Cache.create () in
  let inst = mk_inst 3 in
  Alcotest.(check bool) "empty misses" true (find c ~key:"a" ~inst = None);
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots 3; effort = effort0 };
  (match find c ~key:"a" ~inst with
  | Some v -> Alcotest.(check bool) "slots round-trip" true (v.Cache.slots = ident_slots 3)
  | None -> Alcotest.fail "stored entry not found");
  Alcotest.(check bool) "other key misses" true (find c ~key:"b" ~inst = None);
  Alcotest.(check int) "length" 1 (Cache.length c)

let test_content_verification () =
  (* same key, different content: the WL signature is not a perfect
     canonical form, so a colliding key must miss, not lie *)
  let c = Cache.create () in
  let inst = mk_inst 3 in
  let other = mk_inst ~kth:2.0 3 in
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots 3; effort = effort0 };
  Alcotest.(check bool) "content mismatch misses" true
    (find c ~key:"a" ~inst:other = None)

let test_eviction () =
  let c = Cache.create ~capacity:2 () in
  let inst n = mk_inst n in
  let store key n =
    Cache.store c ~key ~inst:(inst n)
      { Cache.slots = ident_slots n; effort = effort0 }
  in
  store "a" 2;
  store "b" 3;
  (* touch "a" so "b" is the LRU entry *)
  ignore (find c ~key:"a" ~inst:(inst 2));
  store "c" 4;
  Alcotest.(check int) "capacity bound" 2 (Cache.length c);
  Alcotest.(check bool) "LRU evicted" true (find c ~key:"b" ~inst:(inst 3) = None);
  Alcotest.(check bool) "recently-used kept" true
    (find c ~key:"a" ~inst:(inst 2) <> None)

let test_admit () =
  let c = Cache.create () in
  let inst = mk_inst 3 in
  Cache.store c ~key:"a" ~inst
    { Cache.slots = ident_slots 3; effort = { effort0 with Cache.retries = 2 } };
  let admit_le n v = v.Cache.effort.Cache.retries <= n in
  Alcotest.(check bool) "beyond budget misses" true
    (Cache.find c ~params:k ~key:"a" ~inst ~admit:(admit_le 1) () = None);
  Alcotest.(check bool) "entry survives the refusal" true
    (Cache.find c ~params:k ~key:"a" ~inst ~admit:(admit_le 2) () <> None)

let test_bound_reject () =
  (* a fully sensitive clique needs shields; an entry claiming zero
     beats the sound lower bound and must be dropped as corrupt *)
  let n = 6 in
  let inst = mk_inst ~kth:0.05 ~sensitive:(fun i j -> i <> j) n in
  Alcotest.(check bool) "premise: bound is positive" true
    (Bound.shield_lower_bound ~params:k inst > 0);
  let c = Cache.create () in
  Cache.store c ~key:"a" ~inst { Cache.slots = ident_slots n; effort = effort0 };
  Alcotest.(check bool) "bound-beating entry rejected" true
    (find c ~key:"a" ~inst = None);
  Alcotest.(check int) "and dropped" 0 (Cache.length c)

(* ---------------- solver integration ---------------- *)

let test_solve_dispositions () =
  let inst = mk_inst ~sensitive:(sym_sens 3 0.5) 8 in
  let req = Solver.request ~seed:42 () in
  let cache = Cache.create () in
  let s1 = Solver.solve ~cache req inst in
  Alcotest.(check bool) "first solve stored" true
    (s1.Solver.cache = Some Solver.Stored);
  let s2 = Solver.solve ~cache req inst in
  Alcotest.(check bool) "second solve hits" true (s2.Solver.cache = Some Solver.Hit);
  Alcotest.(check bool) "identical layouts" true
    (Layout.slots s1.Solver.layout = Layout.slots s2.Solver.layout);
  let s3 = Solver.solve req inst in
  Alcotest.(check bool) "no cache, no disposition" true (s3.Solver.cache = None);
  Alcotest.(check bool) "cache-off layout byte-identical" true
    (Layout.slots s1.Solver.layout = Layout.slots s3.Solver.layout)

let test_order_only_not_cached () =
  let inst = mk_inst 5 in
  let cache = Cache.create () in
  let req = Solver.request ~mode:Solver.Order_only ~seed:1 () in
  let s = Solver.solve ~cache req inst in
  Alcotest.(check bool) "order-only bypasses the cache" true
    (s.Solver.cache = None);
  Alcotest.(check int) "nothing stored" 0 (Cache.length cache)

(* ---------------- on-disk store ---------------- *)

let tmpdir () = Filename.temp_file "gsino_cache" "" |> fun f ->
  Sys.remove f;
  f

let test_disk_roundtrip () =
  let dir = tmpdir () in
  let cache = Cache.create () in
  let solve c inst = Solver.solve ?cache:c (Solver.request ~seed:9 ()) inst in
  let insts =
    List.init 4 (fun i -> mk_inst ~sensitive:(sym_sens (i + 1) 0.5) (6 + i))
  in
  let fresh = List.map (fun i -> solve (Some cache) i) insts in
  Cache.save cache dir;
  let loaded = Cache.load dir in
  Alcotest.(check int) "entry count survives" (Cache.length cache)
    (Cache.length loaded);
  List.iter2
    (fun inst s0 ->
      let s = solve (Some loaded) inst in
      Alcotest.(check bool) "loaded entry hits" true
        (s.Solver.cache = Some Solver.Hit);
      Alcotest.(check bool) "layout identical across processes" true
        (Layout.slots s.Solver.layout = Layout.slots s0.Solver.layout))
    insts fresh;
  (* second save over the same dir is fine (atomic replace) *)
  Cache.save loaded dir

let test_disk_corruption () =
  let write dir lines =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir "panels.v1") in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let empty_after lines =
    let dir = tmpdir () in
    write dir lines;
    Cache.length (Cache.load dir) = 0
  in
  Alcotest.(check bool) "missing dir loads empty" true
    (Cache.length (Cache.load (tmpdir ())) = 0);
  Alcotest.(check bool) "bad header loads empty" true
    (empty_after [ "not-a-panel-cache"; "key a" ]);
  Alcotest.(check bool) "truncated entry loads empty" true
    (empty_after [ "gsino-panelcache-v1"; "key a"; "n 2" ]);
  Alcotest.(check bool) "bad slot permutation loads empty" true
    (empty_after
       [
         "gsino-panelcache-v1";
         "key a";
         "n 2";
         "kth 3ff0000000000000 3ff0000000000000";
         "sens 01 10";
         "slots 0 0";
         "effort 1 0 0 0 0 0";
         "end";
       ])

let test_disk_concurrent_writers () =
  (* several serve workers (or daemon instances) flushing the same
     directory at once: every save publishes via a writer-unique tmp
     name + atomic rename, so a load at any point sees one complete
     store — never a torn or half-renamed file *)
  let dir = tmpdir () in
  let cache_for seed n =
    let c = Cache.create () in
    for i = 0 to n - 1 do
      let inst = mk_inst ~sensitive:(sym_sens (seed + i) 0.5) (4 + (i mod 5)) in
      ignore (Solver.solve ~cache:c (Solver.request ~seed:(seed + i) ()) inst)
    done;
    c
  in
  let caches = List.init 4 (fun w -> cache_for (100 * (w + 1)) 6) in
  let writers =
    List.map
      (fun c -> Domain.spawn (fun () -> for _ = 1 to 5 do Cache.save c dir done))
      caches
  in
  (* interleave loads with the racing writers: must never raise and
     never observe a partial store (load treats corrupt as empty, so a
     non-empty result proves the file was complete) *)
  for _ = 1 to 10 do
    ignore (Cache.load dir)
  done;
  List.iter Domain.join writers;
  let loaded = Cache.load dir in
  Alcotest.(check bool) "last published store is complete" true
    (List.exists (fun c -> Cache.length c = Cache.length loaded) caches);
  Alcotest.(check bool) "winner is one of the writers" true
    (Cache.length loaded > 0);
  (* no tmp litter: every pid/seq-suffixed staging file was renamed or
     cleaned up *)
  let litter =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no tmp files left behind" [] litter

(* ---------------- properties ---------------- *)

let qcheck_tests =
  let open QCheck in
  [
    (* the tentpole property: a permuted copy of a cached panel hits,
       and the remapped solution is byte-identical to solving the
       permuted panel from scratch with no cache — on top of being
       feasible and GSL0028-clean (never below the shield bound) *)
    Test.make ~name:"permuted panels hit and remap correctly" ~count:40
      (pair (int_range 2 14) (int_range 0 10_000))
      (fun (n, seed) ->
        let kth = Array.init n (fun i -> 0.3 +. Rng.pair_hash ~seed i i) in
        let sensitive = sym_sens (seed lxor 0xc5) 0.5 in
        let inst =
          Instance.make ~nets:(Array.init n (fun i -> i)) ~kth ~sensitive
        in
        let perm = Array.init n (fun i -> i) in
        Rng.shuffle (Rng.create (seed + 1)) perm;
        let inst' =
          Instance.make ~nets:(Array.copy perm)
            ~kth:(Array.map (fun s -> kth.(s)) perm)
            ~sensitive
        in
        let req = Solver.request ~seed:11 () in
        let cache = Cache.create () in
        let first = Solver.solve ~cache req inst in
        let hit = Solver.solve ~cache req inst' in
        let direct = Solver.solve req inst' in
        Layout.slots hit.Solver.layout = Layout.slots direct.Solver.layout
        && ((not first.Solver.acceptable) || hit.Solver.cache = Some Solver.Hit)
        && (not hit.Solver.acceptable
           || Layout.cap_violations hit.Solver.layout = 0
              && Layout.num_shields hit.Solver.layout
                 >= Bound.shield_lower_bound ~params:k inst'));
    Test.make ~name:"canonicalize is a relabeling of the same panel" ~count:60
      (pair (int_range 1 14) (int_range 0 10_000))
      (fun (n, seed) ->
        let inst =
          Instance.make ~nets:(Array.init n (fun i -> i))
            ~kth:(Array.init n (fun i -> 0.2 +. Rng.pair_hash ~seed i i))
            ~sensitive:(sym_sens seed 0.5)
        in
        let c = Instance.canonicalize inst in
        let ok = ref (Instance.size c.Instance.inst = n) in
        for a = 0 to n - 1 do
          if
            Instance.kth c.Instance.inst a
            <> Instance.kth inst c.Instance.perm.(a)
          then ok := false;
          for b = 0 to n - 1 do
            if
              Instance.sens c.Instance.inst a b
              <> Instance.sens inst c.Instance.perm.(a) c.Instance.perm.(b)
            then ok := false
          done
        done;
        !ok && c.Instance.signature = Instance.signature inst);
  ]

let suites =
  [
    ( "cache.lru",
      [
        Alcotest.test_case "hit and miss" `Quick test_hit_miss;
        Alcotest.test_case "content verification" `Quick test_content_verification;
        Alcotest.test_case "eviction order" `Quick test_eviction;
        Alcotest.test_case "admit predicate" `Quick test_admit;
        Alcotest.test_case "bound cross-check" `Quick test_bound_reject;
      ] );
    ( "cache.solver",
      [
        Alcotest.test_case "dispositions and byte-identity" `Quick
          test_solve_dispositions;
        Alcotest.test_case "order-only bypass" `Quick test_order_only_not_cached;
      ] );
    ( "cache.disk",
      [
        Alcotest.test_case "round trip" `Quick test_disk_roundtrip;
        Alcotest.test_case "corruption tolerated" `Quick test_disk_corruption;
        Alcotest.test_case "concurrent writers race safely" `Quick
          test_disk_concurrent_writers;
      ] );
    ("cache.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
