(* The instance is its content: each Kth's 64 bits (little-endian), then
   the symmetric sensitivity matrix row by row, one bit per pair.  The
   length 8n + ceil(n²/8) grows with n, so it fixes the size. *)
type t = { nets : int array; content : string }

let packed_length n = (8 * n) + (((n * n) + 7) / 8)

let size t = Array.length t.nets
let net_id t i = t.nets.(i)
let content t = t.content

(* an index past the nets would read the packed matrix: refuse it *)
let check t i = if i < 0 || i >= size t then invalid_arg "index out of bounds"

let kth_bits t i = String.get_int64_le t.content (8 * i)

let kth t i =
  check t i;
  Int64.float_of_bits (kth_bits t i)

(* bit (i, j) of the matrix of an [n]-net content, unchecked *)
let has s n i j =
  let bit = (i * n) + j in
  Char.code (String.unsafe_get s ((8 * n) + (bit lsr 3))) land (1 lsl (bit land 7))
  <> 0

let set_bit b n i j =
  let bit = (i * n) + j in
  let at = (8 * n) + (bit lsr 3) in
  Bytes.set_uint8 b at (Bytes.get_uint8 b at lor (1 lsl (bit land 7)))

let sens t i j =
  let n = size t in
  if i < 0 || j < 0 || i >= n || j >= n then invalid_arg "index out of bounds";
  has t.content n i j

let make ~nets ~kth ~sensitive =
  let n = Array.length nets in
  if Array.length kth <> n then invalid_arg "Instance.make: kth length mismatch";
  let b = Bytes.make (packed_length n) '\000' in
  Array.iteri (fun i k -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float k)) kth;
  (* symmetrized defensively: model sensitivity is mutual (§2.1) *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if sensitive nets.(i) nets.(j) || sensitive nets.(j) nets.(i) then begin
        set_bit b n i j;
        set_bit b n j i
      end
    done
  done;
  { nets; content = Bytes.unsafe_to_string b }

let with_kth t i v =
  if v <= 0.0 then invalid_arg "Instance.with_kth: bound must be positive";
  check t i;
  let b = Bytes.of_string t.content in
  Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v);
  { t with content = Bytes.unsafe_to_string b }

let sensitivity t i =
  let n = size t in
  if n <= 1 then 0.0
  else begin
    let cnt = ref 0 in
    for j = 0 to n - 1 do
      if sens t i j then incr cnt
    done;
    float_of_int !cnt /. float_of_int (n - 1)
  end

let sensitivities t = Array.init (size t) (sensitivity t)

(* ---------------------- canonical panel signature ---------------------
   The content-address the panel cache (Cache) is keyed by: net count +
   sensitivity matrix up to permutation + bucketed Kth bounds.
   Canonicalisation is one-dimensional Weisfeiler-Leman colour
   refinement — initial colours are (Kth bucket, degree), refined by the
   sorted multiset of neighbour colours — and the digest folds the size,
   the sorted final colours and the sorted edge colour pairs, all
   permutation-invariant.  WL is not a perfect graph canonical form, but
   a collision needs WL-indistinguishable non-isomorphic panels AND an
   FNV clash; a cache would verify on hit anyway. *)

(* FNV-1a, 64-bit: self-contained and stable across OCaml versions
   (Hashtbl.hash is ~30-bit — useless at 100k-panel scale). *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_int h x =
  let h = ref h and x = ref (Int64.of_int x) in
  for _ = 1 to 8 do
    let b = Int64.logand !x 0xFFL in
    h := Int64.mul (Int64.logxor !h b) fnv_prime;
    x := Int64.shift_right_logical !x 8
  done;
  !h

(* ~7 buckets per 2x: a tightened bound moves buckets, a float wobble
   below ~5% does not — matching how Phase III steps bounds *)
let kth_bucket v =
  if (not (Float.is_finite v)) || v <= 0.0 then min_int / 2
  else int_of_float (Float.round (log v /. log 1.1))

(* The WL colours hash in native ints.  An OCaml int is the low 63 bits
   of the Int64 state above: xor, and multiplication mod 2^63, read only
   the low 63 bits of their operands, and a colour keeps only the low 62
   ([land max_int]), so every colour equals the Int64 fold's.  Bytes come
   from [asr]: byte 7 then carries the sign bit, as in the sign-extended
   [Int64.of_int] (most Kth buckets are negative). *)
let fnv_basis_int = Int64.to_int fnv_basis
let fnv_prime_int = Int64.to_int fnv_prime

let fnv_native h x =
  let p = fnv_prime_int in
  let h = (h lxor (x land 0xFF)) * p in
  let h = (h lxor ((x asr 8) land 0xFF)) * p in
  let h = (h lxor ((x asr 16) land 0xFF)) * p in
  let h = (h lxor ((x asr 24) land 0xFF)) * p in
  let h = (h lxor ((x asr 32) land 0xFF)) * p in
  let h = (h lxor ((x asr 40) land 0xFF)) * p in
  let h = (h lxor ((x asr 48) land 0xFF)) * p in
  (h lxor ((x asr 56) land 0xFF)) * p

(* ascending insertion sort of [a.(0 .. len-1)] *)
let sort_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let wl_colors t =
  let n = size t and s = t.content in
  (* the neighbours of each net, in increasing index, as CSR *)
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let d = ref 0 in
    for j = 0 to n - 1 do
      if has s n i j then incr d
    done;
    off.(i + 1) <- off.(i) + !d
  done;
  let adj = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    let k = ref off.(i) in
    for j = 0 to n - 1 do
      if has s n i j then begin
        adj.(!k) <- j;
        incr k
      end
    done
  done;
  let color =
    Array.init n (fun i ->
        fnv_native
          (fnv_native fnv_basis_int (kth_bucket (kth t i)))
          (off.(i + 1) - off.(i))
        land max_int)
  in
  let next = Array.make n 0 in
  let buf = Array.make n 0 in
  for _ = 1 to min 8 n do
    for i = 0 to n - 1 do
      let d = off.(i + 1) - off.(i) in
      for k = 0 to d - 1 do
        buf.(k) <- color.(adj.(off.(i) + k))
      done;
      sort_prefix buf d;
      let h = ref (fnv_native fnv_basis_int color.(i)) in
      for k = 0 to d - 1 do
        h := fnv_native !h buf.(k)
      done;
      next.(i) <- !h land max_int
    done;
    Array.blit next 0 color 0 n
  done;
  color

let signature_of_colors t color =
  let n = size t in
  let sorted_colors = Array.copy color in
  Array.sort compare sorted_colors;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if has t.content n i j then
        edges :=
          (min color.(i) color.(j), max color.(i) color.(j)) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  Array.sort
    (fun ((a1 : int), (b1 : int)) (a2, b2) ->
      match compare a1 a2 with 0 -> compare b1 b2 | c -> c)
    edges;
  let h = fnv_int fnv_basis n in
  let h = Array.fold_left fnv_int h sorted_colors in
  let h = Array.fold_left (fun h (a, b) -> fnv_int (fnv_int h a) b) h edges in
  Printf.sprintf "%016Lx" h

let signature t = signature_of_colors t (wl_colors t)

(* ---------------------- canonical relabeling --------------------------
   The cache (and the content-determined solver seeding) need more than a
   permutation-invariant digest: an actual canonical representative.  Net
   labels are reassigned by sorting on (final WL colour, exact Kth bits),
   ties broken by the original index.  For automorphic ties any pick
   yields content-identical canonical forms; for the rare
   WL-indistinguishable non-automorphic ties two permuted instances may
   canonicalise differently — the cache's equality check then simply
   misses, which costs a re-solve, never correctness. *)

type canon = {
  inst : t;  (** canonical relabeling; its net ids are [0..n-1] *)
  perm : int array;
      (** [perm.(c)] = original local index at canonical position [c] *)
  signature : string;
}

let canonicalize t =
  let n = size t in
  let color = wl_colors t in
  let perm = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare color.(a) color.(b) with
      | 0 -> ( match compare (kth_bits t a) (kth_bits t b) with 0 -> compare a b | c -> c)
      | c -> c)
    perm;
  let b = Bytes.make (packed_length n) '\000' in
  for c = 0 to n - 1 do
    Bytes.set_int64_le b (8 * c) (kth_bits t perm.(c));
    for d = 0 to n - 1 do
      if has t.content n perm.(c) perm.(d) then set_bit b n c d
    done
  done;
  let inst = { nets = Array.init n Fun.id; content = Bytes.unsafe_to_string b } in
  { inst; perm; signature = signature_of_colors t color }

(* Content equality up to net identity: exact Kth bits (the signature
   only buckets them) and the sensitivity matrix.  Global net ids are
   deliberately ignored — that is what makes cross-panel sharing work. *)
let equal_content a b = String.equal a.content b.content

let of_content s =
  let len = String.length s in
  let n = ref 0 in
  while packed_length !n < len do
    incr n
  done;
  if packed_length !n <> len then invalid_arg "Instance.of_content: bad length";
  { nets = Array.init !n Fun.id; content = s }

let digest_ints a = Printf.sprintf "%016Lx" (Array.fold_left fnv_int fnv_basis a)

let pp fmt t =
  Format.fprintf fmt "sino-instance(%d nets, mean S=%.2f)" (size t)
    (if size t = 0 then 0.0
     else
       Array.fold_left ( +. ) 0.0 (sensitivities t) /. float_of_int (size t))
