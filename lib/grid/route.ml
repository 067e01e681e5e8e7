module Union_find = Eda_util.Union_find

type t = { net : int; edges : int array }

let of_edges grid ~net edges =
  let tbl = Hashtbl.create (List.length edges) in
  List.iter
    (fun e ->
      if e < 0 || e >= Grid.num_edges grid then
        invalid_arg "Route.of_edges: bad edge id";
      Hashtbl.replace tbl e ())
    edges;
  let arr = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare arr;
  { net; edges = arr }

let net t = t.net
let edges t = t.edges
let num_edges t = Array.length t.edges
let length_gcells t = float_of_int (num_edges t)
let length_um t ~gcell_um = length_gcells t *. gcell_um

let segments grid t dir =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      if Dir.equal (Grid.edge_dir grid e) dir then begin
        let a, b = Grid.edge_ends grid e in
        List.iter
          (fun p ->
            let r = Grid.region_id grid p in
            let cur = Option.value (Hashtbl.find_opt tbl r) ~default:0.0 in
            Hashtbl.replace tbl r (cur +. 0.5))
          [ a; b ]
      end)
    t.edges;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let num_slots grid = 2 * Grid.num_regions grid

let slot grid r = function Dir.H -> r | Dir.V -> Grid.num_regions grid + r

(* Decodes [Grid.edge_ends] arithmetically: an H edge joins regions r and
   r + 1, a V edge r and r + w. *)
let iter_slots grid t f =
  let w = Grid.width grid and n = Grid.num_regions grid in
  let nh = (w - 1) * Grid.height grid in
  Array.iter
    (fun e ->
      if e < nh then begin
        let r = (e / (w - 1) * w) + (e mod (w - 1)) in
        f r;
        f (r + 1)
      end
      else begin
        let r = n + e - nh in
        f r;
        f (r + w)
      end)
    t.edges

(* Ascending slots list H regions before V ones, each ascending: the
   order of [segments]. *)
let occupied grid t =
  let n = Grid.num_regions grid in
  let slots = Array.make (2 * num_edges t) 0 and k = ref 0 in
  iter_slots grid t (fun s ->
      slots.(!k) <- s;
      incr k);
  Array.sort Int.compare slots;
  let acc = ref [] in
  for i = !k - 1 downto 0 do
    let s = slots.(i) in
    if i = 0 || slots.(i - 1) <> s then
      acc := (if s < n then (s, Dir.H) else (s - n, Dir.V)) :: !acc
  done;
  !acc

(* Union-find over the regions touched by the route plus the pin regions. *)
let components grid t pins =
  let ids = Hashtbl.create 32 in
  let intern r =
    match Hashtbl.find_opt ids r with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids r i;
        i
  in
  let pairs =
    Array.to_list t.edges
    |> List.map (fun e ->
           let a, b = Grid.edge_ends grid e in
           (intern (Grid.region_id grid a), intern (Grid.region_id grid b)))
  in
  let pin_ids = List.map (fun p -> intern (Grid.region_id grid p)) pins in
  let uf = Union_find.create (Hashtbl.length ids) in
  List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
  (uf, pin_ids, Hashtbl.length ids)

let connects grid t pins =
  match pins with
  | [] -> true
  | first :: rest ->
      let uf, pin_ids, _ = components grid t (first :: rest) in
      let canon = List.hd pin_ids in
      List.for_all (fun i -> Union_find.same uf canon i) pin_ids

let is_tree grid t =
  let uf, _, n = components grid t [] in
  (* acyclic iff every union succeeded: edges = n - components *)
  Array.length t.edges = n - Union_find.count uf

let path_edges grid t ~source ~sink =
  let src = Grid.region_id grid source and dst = Grid.region_id grid sink in
  if src = dst then []
  else begin
    (* BFS over route edges, tracking the arriving edge for backtracking *)
    let adj = Hashtbl.create 32 in
    let add a b e =
      Hashtbl.replace adj a ((b, e) :: Option.value (Hashtbl.find_opt adj a) ~default:[])
    in
    Array.iter
      (fun e ->
        let a, b = Grid.edge_ends grid e in
        let ra = Grid.region_id grid a and rb = Grid.region_id grid b in
        add ra rb e;
        add rb ra e)
      t.edges;
    let via = Hashtbl.create 32 in
    (* region -> (previous region, edge) *)
    Hashtbl.add via src (src, -1);
    let q = Queue.create () in
    Queue.add src q;
    (try
       while not (Queue.is_empty q) do
         let r = Queue.take q in
         if r = dst then raise Exit;
         List.iter
           (fun (nb, e) ->
             if not (Hashtbl.mem via nb) then begin
               Hashtbl.add via nb (r, e);
               Queue.add nb q
             end)
           (Option.value (Hashtbl.find_opt adj r) ~default:[])
       done
     with Exit -> ());
    if not (Hashtbl.mem via dst) then raise Not_found;
    let rec back r acc =
      let prev, e = Hashtbl.find via r in
      if e = -1 then acc else back prev (e :: acc)
    in
    back dst []
  end

let path_length grid t ~source ~sink =
  List.length (path_edges grid t ~source ~sink)

let pp fmt t =
  Format.fprintf fmt "route(net=%d, %d edges)" t.net (num_edges t)
