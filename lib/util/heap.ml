type 'a t = {
  mutable keys : float array;
  mutable vals : 'a array;
  mutable n : int;
}

let create () = { keys = Array.make 16 0.0; vals = [||]; n = 0 }
let length h = h.n
let is_empty h = h.n = 0

let grow h v =
  let cap = Array.length h.keys in
  if h.n >= cap then begin
    let keys' = Array.make (2 * cap) 0.0 in
    Array.blit h.keys 0 keys' 0 h.n;
    h.keys <- keys';
    let vals' = Array.make (2 * cap) v in
    Array.blit h.vals 0 vals' 0 h.n;
    h.vals <- vals'
  end
  else if Array.length h.vals = 0 then h.vals <- Array.make cap v

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
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
  grow h v;
  h.keys.(h.n) <- key;
  h.vals.(h.n) <- v;
  h.n <- h.n + 1;
  sift_up h (h.n - 1)

let peek_max h =
  if h.n = 0 then raise Not_found;
  (h.keys.(0), h.vals.(0))

let top_key h =
  if h.n = 0 then raise Not_found;
  h.keys.(0)

let top h =
  if h.n = 0 then raise Not_found;
  h.vals.(0)

let pop h =
  if h.n = 0 then raise Not_found;
  h.n <- h.n - 1;
  if h.n > 0 then begin
    h.keys.(0) <- h.keys.(h.n);
    h.vals.(0) <- h.vals.(h.n);
    sift_down h 0
  end

let pop_max h =
  let top = (top_key h, top h) in
  pop h;
  top

let clear h = h.n <- 0
