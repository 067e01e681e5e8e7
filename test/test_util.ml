(* Unit and property tests for Eda_util: rng, stats, matrix, lintable,
   heap, union-find. *)
module Rng = Eda_util.Rng
module Stats = Eda_util.Stats
module Matrix = Eda_util.Matrix
module Lintable = Eda_util.Lintable
module Heap = Eda_util.Heap
module Union_find = Eda_util.Union_find

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------------------------- Rng ---------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.bits64 child <> Rng.bits64 a)

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "int 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 4 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-3) 5 in
    Alcotest.(check bool) "-3 <= v <= 5" true (v >= -3 && v <= 5)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bool_bias () =
  let r = Rng.create 6 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p(true) ~ 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create 8 in
  let n = 20_000 in
  let s = ref 0.0 in
  for _ = 1 to n do
    s := !s +. Rng.exponential r ~mean:4.0
  done;
  let m = !s /. float_of_int n in
  Alcotest.(check bool) "mean ~ 4" true (Float.abs (m -. 4.0) < 0.15)

let test_rng_gaussian_moments () =
  let r = Rng.create 9 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mu:1.5 ~sigma:2.0) in
  Alcotest.(check bool) "mean ~ 1.5" true (Float.abs (Stats.mean samples -. 1.5) < 0.08);
  Alcotest.(check bool) "stdev ~ 2" true (Float.abs (Stats.stdev samples -. 2.0) < 0.08)

let test_rng_geometric () =
  let r = Rng.create 10 in
  Alcotest.(check int) "p=1 always 0" 0 (Rng.geometric r 1.0);
  let n = 20_000 in
  let s = ref 0 in
  for _ = 1 to n do
    s := !s + Rng.geometric r 0.5
  done;
  let m = float_of_int !s /. float_of_int n in
  (* mean of geometric(0.5) counting failures = (1-p)/p = 1 *)
  Alcotest.(check bool) "mean ~ 1" true (Float.abs (m -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_choose () =
  let r = Rng.create 12 in
  for _ = 1 to 100 do
    let v = Rng.choose r [| 1; 2; 3 |] in
    Alcotest.(check bool) "chosen from array" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty array rejected"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

let test_pair_hash_symmetric () =
  for i = 0 to 30 do
    for j = 0 to 30 do
      check_float "symmetric"
        (Rng.pair_hash ~seed:5 i j)
        (Rng.pair_hash ~seed:5 j i)
    done
  done

let test_pair_hash_seed_sensitivity () =
  Alcotest.(check bool) "seed changes hash" true
    (Rng.pair_hash ~seed:1 3 4 <> Rng.pair_hash ~seed:2 3 4)

let test_pair_hash_uniform () =
  let n = 300 in
  let hits = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr total;
      if Rng.pair_hash ~seed:99 i j < 0.3 then incr hits
    done
  done;
  let p = float_of_int !hits /. float_of_int !total in
  Alcotest.(check bool) "fraction ~ 0.3" true (Float.abs (p -. 0.3) < 0.01)

(* ---------------------------- Stats -------------------------------- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_stdev () =
  check_float ~eps:1e-9 "stdev" (sqrt 1.25) (Stats.stdev [| 1.; 2.; 3.; 4. |])

let test_stats_minmax () =
  check_float "min" (-2.) (Stats.minimum [| 3.; -2.; 7. |]);
  check_float "max" 7. (Stats.maximum [| 3.; -2.; 7. |])

let test_stats_sum_kahan () =
  let a = Array.make 10_000 0.1 in
  check_float ~eps:1e-9 "kahan sum" 1000.0 (Stats.sum a)

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p50" 3.0 (Stats.percentile a 50.0);
  check_float "p100" 5.0 (Stats.percentile a 100.0);
  check_float "p25" 2.0 (Stats.percentile a 25.0)

let test_stats_percentile_unsorted () =
  check_float "unsorted input" 3.0 (Stats.percentile [| 5.; 1.; 3.; 2.; 4. |] 50.0)

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_ratio_pct () =
  check_float "+10%" 10.0 (Stats.ratio_pct 110.0 100.0);
  check_float "-25%" (-25.0) (Stats.ratio_pct 75.0 100.0)

let test_stats_r_squared () =
  let actual = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect fit" 1.0 (Stats.r_squared ~actual ~predicted:actual);
  let bad = [| 2.5; 2.5; 2.5; 2.5 |] in
  check_float "mean-only fit" 0.0 (Stats.r_squared ~actual ~predicted:bad)

let test_stats_max_rel_err () =
  check_float "10% worst" 0.1
    (Stats.max_rel_err ~actual:[| 10.; 100. |] [| 11.; 100. |])

let test_stats_mean_int () = check_float "mean_int" 2.0 (Stats.mean_int [| 1; 2; 3 |])

let test_stats_quantile_int () =
  Alcotest.(check int) "median" 3 (Stats.quantile_int [| 5; 1; 3; 2; 4 |] 0.5);
  Alcotest.(check int) "q0 is min" 1 (Stats.quantile_int [| 5; 1; 3 |] 0.0);
  Alcotest.(check int) "q1 is max" 5 (Stats.quantile_int [| 5; 1; 3 |] 1.0);
  Alcotest.(check int) "singleton" 7 (Stats.quantile_int [| 7 |] 0.9)

let test_stats_quantile_int_empty () =
  (* regression: an empty sample (zero-region grid) must yield 0, not
     index a.(-1) *)
  Alcotest.(check int) "empty is 0" 0 (Stats.quantile_int [||] 0.9)

(* ---------------------------- Matrix ------------------------------- *)

let test_matrix_identity_mul () =
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let i = Matrix.identity 2 in
  let p = Matrix.mul a i in
  check_float "a*i = a (0,1)" 2.0 (Matrix.get p 0 1);
  check_float "a*i = a (1,0)" 3.0 (Matrix.get p 1 0)

let test_matrix_mul_known () =
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Matrix.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let p = Matrix.mul a b in
  check_float "(0,0)" 19.0 (Matrix.get p 0 0);
  check_float "(0,1)" 22.0 (Matrix.get p 0 1);
  check_float "(1,0)" 43.0 (Matrix.get p 1 0);
  check_float "(1,1)" 50.0 (Matrix.get p 1 1)

let test_matrix_transpose () =
  let a = Matrix.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Matrix.cols t);
  check_float "(2,1)" 6.0 (Matrix.get t 2 1)

let test_matrix_mulv () =
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let y = Matrix.mulv a [| 1.; 1. |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1)

let test_matrix_solve_known () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Matrix.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Matrix.solve a [| 5.; 10. |] in
  check_float ~eps:1e-9 "x" 1.0 x.(0);
  check_float ~eps:1e-9 "y" 3.0 x.(1)

let test_matrix_solve_pivoting () =
  (* leading zero forces a row swap *)
  let a = Matrix.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Matrix.solve a [| 2.; 3. |] in
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1)

let test_matrix_singular () =
  (* row 1 = 2 * row 0: rank deficient.  The typed exception must carry
     the dimension and the vanishing pivot so a user can tell "bad
     input" from "numerical bad luck"; its registered printer keeps the
     historical one-line message. *)
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Matrix.solve a [| 1.; 1. |] with
  | _ -> Alcotest.fail "singular matrix accepted"
  | exception (Matrix.Singular { n; column; pivot } as exn) ->
      Alcotest.(check int) "dimension" 2 n;
      Alcotest.(check int) "offending column" 1 column;
      Alcotest.(check (float 1e-13)) "vanishing pivot" 0.0 pivot;
      let msg = Printexc.to_string exn in
      Alcotest.(check bool)
        "printer names lu_factor" true
        (contains ~sub:"Matrix.lu_factor: singular matrix" msg);
      Alcotest.(check bool) "printer names dimension" true
        (contains ~sub:"n=2" msg)

let test_matrix_lu_reuse () =
  let a = Matrix.of_rows [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let lu = Matrix.lu_factor a in
  let x1 = Matrix.lu_solve lu [| 5.; 4. |] in
  let x2 = Matrix.lu_solve lu [| 9.; 7. |] in
  let y1 = Matrix.mulv a x1 and y2 = Matrix.mulv a x2 in
  check_float ~eps:1e-9 "solve1" 5.0 y1.(0);
  check_float ~eps:1e-9 "solve2" 7.0 y2.(1)

let test_matrix_least_squares_exact () =
  (* y = 2x + 1 through 3 exact points *)
  let a = Matrix.of_rows [| [| 0.; 1. |]; [| 1.; 1. |]; [| 2.; 1. |] |] in
  let c = Matrix.least_squares a [| 1.; 3.; 5. |] in
  check_float ~eps:1e-5 "slope" 2.0 c.(0);
  check_float ~eps:1e-5 "intercept" 1.0 c.(1)

let test_matrix_least_squares_noisy () =
  let a = Matrix.of_rows [| [| 0.; 1. |]; [| 1.; 1. |]; [| 2.; 1. |]; [| 3.; 1. |] |] in
  (* symmetric noise around y = x: best slope 1, intercept ~0.05 *)
  let c = Matrix.least_squares a [| 0.1; 1.0; 2.0; 3.1 |] in
  Alcotest.(check bool) "slope near 1" true (Float.abs (c.(0) -. 1.0) < 0.05)

let test_matrix_cholesky_pd () =
  let a = Matrix.of_rows [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  match Matrix.cholesky a with
  | None -> Alcotest.fail "PD matrix rejected"
  | Some l ->
      let lt = Matrix.transpose l in
      let p = Matrix.mul l lt in
      check_float ~eps:1e-9 "L*L' = A" 2.0 (Matrix.get p 0 1)

let test_matrix_cholesky_not_pd () =
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.(check bool) "indefinite rejected" true (Matrix.cholesky a = None)

let test_matrix_bounds () =
  let a = Matrix.create 2 2 in
  Alcotest.check_raises "oob get" (Invalid_argument "Matrix.get: index out of bounds")
    (fun () -> ignore (Matrix.get a 2 0))

(* ---------------------------- Lintable ----------------------------- *)

let test_lintable_eval () =
  let t = Lintable.of_points [ (0., 0.); (10., 100.) ] in
  check_float "interp" 50.0 (Lintable.eval t 5.0);
  check_float "clamp lo" 0.0 (Lintable.eval t (-1.0));
  check_float "clamp hi" 100.0 (Lintable.eval t 11.0)

let test_lintable_unsorted_input () =
  let t = Lintable.of_points [ (10., 100.); (0., 0.) ] in
  check_float "sorted internally" 50.0 (Lintable.eval t 5.0)

let test_lintable_duplicate_merge () =
  let t = Lintable.of_points [ (0., 0.); (5., 10.); (5., 20.); (10., 30.) ] in
  check_float "duplicates averaged" 15.0 (Lintable.eval t 5.0)

let test_lintable_too_few () =
  Alcotest.check_raises "one point rejected"
    (Invalid_argument "Lintable.of_points: need at least 2 distinct abscissae")
    (fun () -> ignore (Lintable.of_points [ (1., 1.); (1., 2.) ]))

let test_lintable_isotonic () =
  let t = Lintable.of_points [ (0., 0.); (1., 5.); (2., 3.); (3., 10.) ] in
  let iso = Lintable.isotonic t in
  let e = Lintable.entries iso in
  for i = 0 to Array.length e - 2 do
    Alcotest.(check bool) "non-decreasing" true (snd e.(i) <= snd e.(i + 1))
  done;
  (* PAV pools 5 and 3 to 4 *)
  check_float "pooled value" 4.0 (snd e.(1));
  check_float "pooled value" 4.0 (snd e.(2))

let test_lintable_isotonic_keeps_monotone () =
  let pts = [ (0., 0.); (1., 1.); (2., 4.); (3., 9.) ] in
  let t = Lintable.of_points pts in
  let iso = Lintable.isotonic t in
  List.iter (fun (x, y) -> check_float "unchanged" y (Lintable.eval iso x)) pts

let test_lintable_resample () =
  let t = Lintable.of_points [ (0., 0.); (10., 10.) ] in
  let r = Lintable.resample t 11 in
  Alcotest.(check int) "size" 11 (Lintable.size r);
  check_float "same function" 3.0 (Lintable.eval r 3.0)

let test_lintable_inverse () =
  let t = Lintable.of_points [ (0., 0.); (10., 100.) ] in
  check_float "inverse" 5.0 (Lintable.inverse t 50.0);
  check_float "inverse clamp lo" 0.0 (Lintable.inverse t (-5.0));
  check_float "inverse clamp hi" 10.0 (Lintable.inverse t 200.0)

let test_lintable_roundtrip () =
  let t = Lintable.of_points [ (0., 0.); (4., 8.); (10., 20.) ] in
  List.iter
    (fun x -> check_float ~eps:1e-9 "inverse(eval(x)) = x" x (Lintable.inverse t (Lintable.eval t x)))
    [ 1.0; 3.0; 7.0 ]

(* ---------------------------- Heap --------------------------------- *)

let test_heap_pop_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 3.; 1.; 4.; 1.5; 9.; 2.6 ];
  let rec drain acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let k = Heap.top_key h in
      Heap.pop h;
      drain (k :: acc)
    end
  in
  Alcotest.(check (list (float 1e-9))) "descending order" [ 9.; 4.; 3.; 2.6; 1.5; 1. ] (drain [])

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "top_key empty" Not_found (fun () -> ignore (Heap.top_key h));
  Alcotest.check_raises "top empty" Not_found (fun () -> ignore (Heap.top h));
  Alcotest.check_raises "pop empty" Not_found (fun () -> Heap.pop h)

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 2.0 1;
  Heap.push h 5.0 2;
  Alcotest.(check (float 0.0)) "top key" 5.0 (Heap.top_key h);
  Alcotest.(check int) "top" 2 (Heap.top h);
  Alcotest.(check int) "length unchanged" 2 (Heap.length h)

let test_heap_duplicates () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.push h 1.0 2;
  Heap.pop h;
  Heap.pop h;
  Alcotest.(check bool) "both popped" true (Heap.is_empty h)

let test_heap_growth () =
  let h = Heap.create () in
  for i = 1 to 1000 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "all stored" 1000 (Heap.length h);
  Alcotest.(check int) "max is 1000" 1000 (Heap.top h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

(* ---------------------------- Union-find --------------------------- *)

let test_uf_basic () =
  let u = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.count u);
  Alcotest.(check bool) "union works" true (Union_find.union u 0 1);
  Alcotest.(check bool) "re-union is no-op" false (Union_find.union u 0 1);
  Alcotest.(check bool) "same" true (Union_find.same u 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same u 0 2);
  Alcotest.(check int) "sets after union" 4 (Union_find.count u)

let test_uf_transitive () =
  let u = Union_find.create 6 in
  ignore (Union_find.union u 0 1);
  ignore (Union_find.union u 1 2);
  ignore (Union_find.union u 3 4);
  Alcotest.(check bool) "0~2 transitively" true (Union_find.same u 0 2);
  Alcotest.(check bool) "0!~3" false (Union_find.same u 0 3);
  ignore (Union_find.union u 2 3);
  Alcotest.(check bool) "now 0~4" true (Union_find.same u 0 4)

(* ---------------------------- QCheck props ------------------------- *)

(* The dense LU solve the row-compressed factors replaced, as it was:
   partial pivoting, then forward and back substitution over full rows.
   Raises [Matrix.Singular] exactly where [Matrix.lu_factor] must. *)
let dense_lu_solve n a b =
  let f = Array.copy a in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let piv = ref k and best = ref (Float.abs f.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs f.((i * n) + k) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < 1e-13 then raise (Matrix.Singular { n; column = k; pivot = !best });
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let tmp = f.((k * n) + j) in
        f.((k * n) + j) <- f.((!piv * n) + j);
        f.((!piv * n) + j) <- tmp
      done;
      let tp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tp
    end;
    let pivot = f.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let l = f.((i * n) + k) /. pivot in
      f.((i * n) + k) <- l;
      if l <> 0.0 then
        for j = k + 1 to n - 1 do
          f.((i * n) + j) <- f.((i * n) + j) -. (l *. f.((k * n) + j))
        done
    done
  done;
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (f.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (f.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. f.((i * n) + i)
  done;
  x

(* Systems of order 1-8, row-major: entries are exact zeros about 40% of
   the time.  [shape] 0 keeps the draw (some singular, some pivoting),
   1 makes it diagonally dominant, 2 moves the dominant diagonal to the
   anti-diagonal so that pivoting must swap rows. *)
let arb_system =
  let open QCheck in
  let gen =
    let open Gen in
    let entry = frequency [ (2, return 0.0); (3, float_range (-10.) 10.) ] in
    int_range 1 8 >>= fun n ->
    array_size (return (n * n)) entry >>= fun a ->
    array_size (return n) entry >>= fun b ->
    int_range 0 2 >|= fun shape ->
    (match shape with
    | 1 -> for i = 0 to n - 1 do a.((i * n) + i) <- a.((i * n) + i) +. 50.0 done
    | 2 ->
        for i = 0 to n - 1 do
          a.((i * n) + (n - 1 - i)) <- a.((i * n) + (n - 1 - i)) +. 50.0
        done
    | _ -> ());
    (n, a, b)
  in
  let print (n, a, b) =
    Printf.sprintf "n=%d a=[%s] b=[%s]" n
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") b)))
  in
  make ~print gen

let lu_outcome f =
  match f () with
  | x -> Ok x
  | exception Matrix.Singular { n; column; pivot } -> Error (n, column, pivot)

(* A textbook swap-based heap over the same implicit tree: the reference
   whose tie order [Heap] must match (callers' outputs depend on which of
   several equal keys pops first). *)
module Swap_heap = struct
  type t = { keys : float array; vals : int array; mutable n : int }

  let create cap = { keys = Array.make cap 0.0; vals = Array.make cap 0; n = 0 }

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.keys.(parent) < h.keys.(i) then begin
        swap h parent i;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.n && h.keys.(l) > h.keys.(!best) then best := l;
    if r < h.n && h.keys.(r) > h.keys.(!best) then best := r;
    if !best <> i then begin
      swap h i !best;
      sift_down h !best
    end

  let push h key v =
    h.keys.(h.n) <- key;
    h.vals.(h.n) <- v;
    h.n <- h.n + 1;
    sift_up h (h.n - 1)

  let pop_max h =
    let top = (h.keys.(0), h.vals.(0)) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.keys.(0) <- h.keys.(h.n);
      h.vals.(0) <- h.vals.(h.n);
      sift_down h 0
    end;
    top
end

(* Replay [ops] ([Some k] pushes key [k] with the op's index as payload,
   [None] pops when non-empty), then drain: the (key, payload) pops of
   [Heap] and of the reference, in order. *)
let heap_pops ops =
  let h = Heap.create () and r = Swap_heap.create (List.length ops) in
  let got = ref [] and want = ref [] in
  let pop () =
    got := (Heap.top_key h, Heap.top h) :: !got;
    Heap.pop h;
    want := Swap_heap.pop_max r :: !want
  in
  List.iteri
    (fun i op ->
      match op with
      | Some k ->
          Heap.push h (float_of_int k) i;
          Swap_heap.push r (float_of_int k) i
      | None -> if not (Heap.is_empty h) then pop ())
    ops;
  while not (Heap.is_empty h) do
    pop ()
  done;
  (List.rev !got, List.rev !want, r.Swap_heap.n)

let compressed_lu_matches_dense (n, a, b) =
  let m = Matrix.of_rows (Array.init n (fun i -> Array.sub a (i * n) n)) in
  match
    ( lu_outcome (fun () -> Matrix.lu_solve (Matrix.lu_factor m) b),
      lu_outcome (fun () -> dense_lu_solve n a b) )
  with
  | Ok x, Ok y -> Array.for_all2 Float.equal x y
  | Error (n1, c1, p1), Error (n2, c2, p2) -> n1 = n2 && c1 = c2 && Float.equal p1 p2
  | Ok _, Error _ | Error _, Ok _ -> false

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"heap pops every pushed key in descending order" ~count:100
      (list (float_bound_inclusive 1000.0))
      (fun keys ->
        let h = Heap.create () in
        List.iter (fun k -> Heap.push h k 0) keys;
        let rec drain acc =
          if Heap.is_empty h then List.rev acc
          else begin
            let k = Heap.top_key h in
            Heap.pop h;
            drain (k :: acc)
          end
        in
        drain [] = List.sort (fun a b -> compare b a) keys);
    (* keys from four values make ties the common case *)
    Test.make ~name:"heap ties pop in the swap-based heap's order" ~count:1000
      (list_of_size (Gen.int_range 0 80) (option (int_bound 3)))
      (fun ops ->
        let got, want, left = heap_pops ops in
        left = 0 && got = want);
    Test.make ~name:"isotonic output is monotone" ~count:100
      (list_of_size (Gen.int_range 2 30) (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
      (fun pts ->
        assume (List.length (List.sort_uniq compare (List.map fst pts)) >= 2);
        let t = Lintable.isotonic (Lintable.of_points pts) in
        let e = Lintable.entries t in
        let ok = ref true in
        for i = 0 to Array.length e - 2 do
          if snd e.(i) > snd e.(i + 1) +. 1e-9 then ok := false
        done;
        !ok);
    Test.make ~name:"compressed lu_solve equals the dense solve" ~count:600
      arb_system compressed_lu_matches_dense;
    Test.make ~name:"lu_solve solves Ax=b" ~count:100
      (list_of_size (Gen.return 9) (float_range (-10.) 10.))
      (fun vals ->
        let a = Matrix.create 3 3 in
        List.iteri (fun i v -> Matrix.set a (i / 3) (i mod 3) v) vals;
        (* make it diagonally dominant so it is well-conditioned *)
        for i = 0 to 2 do
          Matrix.add_to a i i 50.0
        done;
        let b = [| 1.0; -2.0; 3.0 |] in
        let x = Matrix.solve a b in
        let y = Matrix.mulv a x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) y b);
    Test.make ~name:"pair_hash is in [0,1)" ~count:500
      (pair small_nat small_nat)
      (fun (i, j) ->
        let v = Rng.pair_hash ~seed:7 i j in
        v >= 0.0 && v < 1.0);
  ]

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "geometric" `Quick test_rng_geometric;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "choose" `Quick test_rng_choose;
        Alcotest.test_case "pair_hash symmetric" `Quick test_pair_hash_symmetric;
        Alcotest.test_case "pair_hash seeded" `Quick test_pair_hash_seed_sensitivity;
        Alcotest.test_case "pair_hash uniform" `Quick test_pair_hash_uniform;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "stdev" `Quick test_stats_stdev;
        Alcotest.test_case "min/max" `Quick test_stats_minmax;
        Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted;
        Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
        Alcotest.test_case "ratio_pct" `Quick test_stats_ratio_pct;
        Alcotest.test_case "r_squared" `Quick test_stats_r_squared;
        Alcotest.test_case "max_rel_err" `Quick test_stats_max_rel_err;
        Alcotest.test_case "mean_int" `Quick test_stats_mean_int;
        Alcotest.test_case "quantile_int" `Quick test_stats_quantile_int;
        Alcotest.test_case "quantile_int empty" `Quick test_stats_quantile_int_empty;
      ] );
    ( "util.matrix",
      [
        Alcotest.test_case "identity mul" `Quick test_matrix_identity_mul;
        Alcotest.test_case "mul known" `Quick test_matrix_mul_known;
        Alcotest.test_case "transpose" `Quick test_matrix_transpose;
        Alcotest.test_case "mulv" `Quick test_matrix_mulv;
        Alcotest.test_case "solve known" `Quick test_matrix_solve_known;
        Alcotest.test_case "solve pivoting" `Quick test_matrix_solve_pivoting;
        Alcotest.test_case "singular rejected" `Quick test_matrix_singular;
        Alcotest.test_case "lu reuse" `Quick test_matrix_lu_reuse;
        Alcotest.test_case "least squares exact" `Quick test_matrix_least_squares_exact;
        Alcotest.test_case "least squares noisy" `Quick test_matrix_least_squares_noisy;
        Alcotest.test_case "cholesky PD" `Quick test_matrix_cholesky_pd;
        Alcotest.test_case "cholesky not PD" `Quick test_matrix_cholesky_not_pd;
        Alcotest.test_case "bounds checked" `Quick test_matrix_bounds;
      ] );
    ( "util.lintable",
      [
        Alcotest.test_case "eval" `Quick test_lintable_eval;
        Alcotest.test_case "unsorted input" `Quick test_lintable_unsorted_input;
        Alcotest.test_case "duplicate merge" `Quick test_lintable_duplicate_merge;
        Alcotest.test_case "too few points" `Quick test_lintable_too_few;
        Alcotest.test_case "isotonic pools violators" `Quick test_lintable_isotonic;
        Alcotest.test_case "isotonic keeps monotone" `Quick test_lintable_isotonic_keeps_monotone;
        Alcotest.test_case "resample" `Quick test_lintable_resample;
        Alcotest.test_case "inverse" `Quick test_lintable_inverse;
        Alcotest.test_case "inverse roundtrip" `Quick test_lintable_roundtrip;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "pop order" `Quick test_heap_pop_order;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "peek" `Quick test_heap_peek;
        Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        Alcotest.test_case "growth" `Quick test_heap_growth;
        Alcotest.test_case "clear" `Quick test_heap_clear;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "transitive" `Quick test_uf_transitive;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
