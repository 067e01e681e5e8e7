type t = { r : int; c : int; d : float array }

exception Singular of { n : int; column : int; pivot : float }

let () =
  Printexc.register_printer (function
    | Singular { n; column; pivot } ->
        Some
          (Printf.sprintf
             "Matrix.lu_factor: singular matrix (n=%d, best |pivot| %.3e in \
              column %d)"
             n pivot column)
    | _ -> None)

let create r c =
  if r <= 0 || c <= 0 then invalid_arg "Matrix.create: non-positive dims";
  { r; c; d = Array.make (r * c) 0.0 }

let rows m = m.r
let cols m = m.c

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Matrix.get: index out of bounds";
  m.d.((i * m.c) + j)

let set m i j v =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg "Matrix.set: index out of bounds";
  m.d.((i * m.c) + j) <- v

let add_to m i j v = set m i j (get m i j +. v)

let of_rows a =
  let r = Array.length a in
  if r = 0 then invalid_arg "Matrix.of_rows: no rows";
  let c = Array.length a.(0) in
  let m = create r c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> set m i j v) row)
    a;
  m

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let copy m = { m with d = Array.copy m.d }

let transpose m =
  let t = create m.c m.r in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      set t j i (get m i j)
    done
  done;
  t

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  let p = create a.r b.c in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.c - 1 do
          p.d.((i * p.c) + j) <- p.d.((i * p.c) + j) +. (aik *. get b k j)
        done
    done
  done;
  p

let mulv a x =
  if a.c <> Array.length x then invalid_arg "Matrix.mulv: dimension mismatch";
  Array.init a.r (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.c - 1 do
        s := !s +. (a.d.((i * a.c) + j) *. x.(j))
      done;
      !s)

(* The factors, row-compressed: row [i] of the unit lower factor keeps
   its non-zero columns [lcol.(lptr.(i)) .. lcol.(lptr.(i + 1) - 1)]
   (ascending, all [< i]) with values in [lval]; row [i] of the upper
   factor keeps its non-zero columns [> i] the same way in [ucol]/[uval],
   and its diagonal in [diag]. *)
type lu = {
  n : int;
  perm : int array;
  lptr : int array;
  lcol : int array;
  lval : float array;
  uptr : int array;
  ucol : int array;
  uval : float array;
  diag : float array;
}

(* Row-compress the entries of the [rows]-by-[cols] row-major [f] in
   columns [lo i .. hi i] of each row [i], keeping the non-zero ones:
   count, then fill. *)
let compress ~rows ~cols f ~lo ~hi =
  let ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let c = ref 0 in
    for j = lo i to hi i do
      if f.((i * cols) + j) <> 0.0 then incr c
    done;
    ptr.(i + 1) <- ptr.(i) + !c
  done;
  let col = Array.make ptr.(rows) 0 and v = Array.make ptr.(rows) 0.0 in
  let p = ref 0 in
  for i = 0 to rows - 1 do
    for j = lo i to hi i do
      let x = f.((i * cols) + j) in
      if x <> 0.0 then begin
        col.(!p) <- j;
        v.(!p) <- x;
        incr p
      end
    done
  done;
  (ptr, col, v)

let nonzero_rows m =
  compress ~rows:m.r ~cols:m.c m.d ~lo:(fun _ -> 0) ~hi:(fun _ -> m.c - 1)

let lu_factor a =
  if a.r <> a.c then invalid_arg "Matrix.lu_factor: not square";
  let n = a.r in
  let f = Array.copy a.d in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* partial pivot *)
    let piv = ref k and best = ref (Float.abs f.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs f.((i * n) + k) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < 1e-13 then raise (Singular { n; column = k; pivot = !best });
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
  let lptr, lcol, lval =
    compress ~rows:n ~cols:n f ~lo:(fun _ -> 0) ~hi:(fun i -> i - 1)
  in
  let uptr, ucol, uval =
    compress ~rows:n ~cols:n f ~lo:(fun i -> i + 1) ~hi:(fun _ -> n - 1)
  in
  let diag = Array.init n (fun i -> f.((i * n) + i)) in
  { n; perm; lptr; lcol; lval; uptr; ucol; uval; diag }

(* Skipping an exact-zero factor entry drops a term [s -. 0 *. x] from
   a row sum, which leaves the sum unchanged up to the sign of a zero:
   the substitutions below perform the dense algorithm's other
   operations in its order. *)
let lu_solve_into lu b x =
  let n = lu.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Matrix.lu_solve: bad RHS length";
  let perm = lu.perm in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution (unit lower) *)
  let lptr = lu.lptr and lcol = lu.lcol and lval = lu.lval in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for p = lptr.(i) to lptr.(i + 1) - 1 do
      s := !s -. (lval.(p) *. x.(lcol.(p)))
    done;
    x.(i) <- !s
  done;
  (* back substitution *)
  let uptr = lu.uptr and ucol = lu.ucol and uval = lu.uval in
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for p = uptr.(i) to uptr.(i + 1) - 1 do
      s := !s -. (uval.(p) *. x.(ucol.(p)))
    done;
    x.(i) <- !s /. lu.diag.(i)
  done

let lu_solve lu b =
  let x = Array.make (Array.length b) 0.0 in
  lu_solve_into lu b x;
  x

let solve a b = lu_solve (lu_factor a) b

let least_squares a b =
  if a.r < a.c then invalid_arg "Matrix.least_squares: underdetermined";
  if Array.length b <> a.r then
    invalid_arg "Matrix.least_squares: bad RHS length";
  let at = transpose a in
  let ata = mul at a in
  (* Tikhonov whisper keeps the normal equations well-posed when features
     are nearly collinear (e.g. Formula 3 with constant sensitivities). *)
  for i = 0 to ata.r - 1 do
    add_to ata i i 1e-9
  done;
  let atb = mulv at b in
  solve ata atb

let cholesky a =
  if a.r <> a.c then invalid_arg "Matrix.cholesky: not square";
  let n = a.r in
  let l = create n n in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to i do
         let s = ref (get a i j) in
         for k = 0 to j - 1 do
           s := !s -. (get l i k *. get l j k)
         done;
         if i = j then begin
           if !s <= 0.0 then raise Exit;
           set l i i (sqrt !s)
         end
         else set l i j (!s /. get l j j)
       done
     done
   with Exit -> ok := false);
  if !ok then Some l else None

let pp fmt m =
  for i = 0 to m.r - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.c - 1 do
      Format.fprintf fmt "%s%10.4g" (if j > 0 then " " else "") (get m i j)
    done;
    Format.fprintf fmt "]@\n"
  done
