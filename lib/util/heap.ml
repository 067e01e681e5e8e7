(* Keys sit unboxed in a float array and payloads in an int array, so no
   sift writes through the GC's write barrier.  Both sifts move a hole
   instead of swapping, comparing the moving key with exactly the
   entries a swap-based sift would, so equal keys pop in the swap-based
   heap's order (heap.mli makes that order part of the contract). *)
type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable n : int;
}

let create () = { keys = Array.make 16 0.0; vals = Array.make 16 0; n = 0 }
let length h = h.n
let is_empty h = h.n = 0

let grow h =
  let cap = Array.length h.keys in
  if h.n >= cap then begin
    let keys' = Array.make (2 * cap) 0.0 in
    Array.blit h.keys 0 keys' 0 h.n;
    h.keys <- keys';
    let vals' = Array.make (2 * cap) 0 in
    Array.blit h.vals 0 vals' 0 h.n;
    h.vals <- vals'
  end

(* A new last slot is the hole: a parent moves down into it while the
   parent's key is strictly smaller than [key]. *)
let push h key v =
  grow h;
  let keys = h.keys and vals = h.vals in
  let i = ref h.n in
  h.n <- h.n + 1;
  while !i > 0 && keys.((!i - 1) / 2) < key do
    let parent = (!i - 1) / 2 in
    keys.(!i) <- keys.(parent);
    vals.(!i) <- vals.(parent);
    i := parent
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

let top_key h =
  if h.n = 0 then raise Not_found;
  h.keys.(0)

let top h =
  if h.n = 0 then raise Not_found;
  h.vals.(0)

(* The root is the hole and the last entry the one to place: the larger
   child moves up while it is strictly larger than the entry's key, the
   left child winning a tie between the children. *)
let pop h =
  if h.n = 0 then raise Not_found;
  let n = h.n - 1 in
  h.n <- n;
  if n > 0 then begin
    let keys = h.keys and vals = h.vals in
    let key = keys.(n) and v = vals.(n) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let best = ref !i and best_key = ref key in
      if l < n && keys.(l) > !best_key then begin
        best := l;
        best_key := keys.(l)
      end;
      if l + 1 < n && keys.(l + 1) > !best_key then begin
        best := l + 1;
        best_key := keys.(l + 1)
      end;
      if !best = !i then moving := false
      else begin
        keys.(!i) <- !best_key;
        vals.(!i) <- vals.(!best);
        i := !best
      end
    done;
    keys.(!i) <- key;
    vals.(!i) <- v
  end

let clear h = h.n <- 0
