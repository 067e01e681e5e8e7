type labels = (string * string) list

let n_buckets = 64

(* bucket i covers [2^(i-16), 2^(i-15)); <=0 underflows to 0 *)
let bucket_of v =
  if v <= 0.0 || not (Float.is_finite v) then if v > 0.0 then n_buckets - 1 else 0
  else begin
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    min (n_buckets - 1) (max 0 (e + 15))
  end

type counter_cell = { mutable c : int }
type gauge_cell = { mutable g : float }

type histogram_cell = {
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  buckets : int array;
}

type cell = C of counter_cell | G of gauge_cell | H of histogram_cell

type kind = [ `Counter | `Gauge | `Histogram ]

let zero_cell : kind -> cell = function
  | `Counter -> C { c = 0 }
  | `Gauge -> G { g = 0.0 }
  | `Histogram ->
      H
        {
          count = 0;
          sum = 0.0;
          mn = infinity;
          mx = neg_infinity;
          buckets = Array.make n_buckets 0;
        }

(* An instrument is process-wide: [id] indexes every registry's cells. *)
type instrument = { id : int; key : string * labels; kind : kind }

type counter = instrument
type gauge = instrument
type histogram = instrument

(* Sharding: a registry holds the cells of one recording context, one
   per instrument it has seen, so recording never shares a mutable cell
   across domains as long as a registry is current on one domain at a
   time.  Each domain starts on a fresh registry of its own and swaps it
   with [with_registry]; [snapshot]/[replay] act on the current registry
   only (see the .mli for the contract). *)
type registry = { mutable cells : (instrument * cell) option array }

let fresh_registry () = { cells = [||] }

let zeroed_copy r =
  {
    cells =
      Array.map
        (Option.map (fun (inst, _) -> (inst, zero_cell inst.kind)))
        r.cells;
  }

let current : registry Domain.DLS.key = Domain.DLS.new_key fresh_registry

let current_registry () = Domain.DLS.get current

let with_registry r f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f

(* [inst]'s cell in the calling domain's current registry, materialised
   (at zero) on first touch. *)
let cell inst =
  let r = Domain.DLS.get current in
  let n = Array.length r.cells in
  match if inst.id < n then r.cells.(inst.id) else None with
  | Some (_, c) -> c
  | None ->
      if inst.id >= n then begin
        let cells = Array.make (max (inst.id + 1) (2 * n)) None in
        Array.blit r.cells 0 cells 0 n;
        r.cells <- cells
      end;
      let c = zero_cell inst.kind in
      r.cells.(inst.id) <- Some (inst, c);
      c

(* Process-global (name, labels) -> instrument table, so registration
   stays idempotent across domains and ids are dense.  The mutex guards
   registration only — recording goes straight to the current registry
   and never takes it. *)
let instruments : (string * labels, instrument) Hashtbl.t = Hashtbl.create 64
let instruments_mu = Mutex.create ()

let norm_labels labels =
  let l = List.sort_uniq compare labels in
  if List.length l <> List.length (List.sort_uniq (fun (a, _) (b, _) -> compare a b) l)
  then invalid_arg "Metrics: duplicate label key";
  l

let register what kind ?(labels = []) name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  let key = (name, norm_labels labels) in
  let inst =
    Mutex.protect instruments_mu (fun () ->
        match Hashtbl.find_opt instruments key with
        | Some inst when inst.kind = kind -> inst
        | Some _ ->
            invalid_arg
              ("Metrics." ^ what ^ ": " ^ name ^ " registered with another kind")
        | None ->
            let inst = { id = Hashtbl.length instruments; key; kind } in
            Hashtbl.replace instruments key inst;
            inst)
  in
  (* materialise the cell eagerly so the instrument shows up in
     snapshots at value zero even if never bumped *)
  ignore (cell inst);
  inst

let counter ?labels name = register "counter" `Counter ?labels name
let gauge ?labels name = register "gauge" `Gauge ?labels name
let histogram ?labels name = register "histogram" `Histogram ?labels name

(* handles are kind-checked at registration: the other arms never run *)
let counter_cell k = match cell k with C c -> c | G _ | H _ -> assert false
let gauge_cell k = match cell k with G g -> g | C _ | H _ -> assert false
let histogram_cell k = match cell k with H h -> h | C _ | G _ -> assert false

let incr k =
  let c = counter_cell k in
  c.c <- c.c + 1

let add k n =
  let c = counter_cell k in
  c.c <- c.c + n

let counter_value k = (counter_cell k).c

let set k v = (gauge_cell k).g <- v

let accum k v =
  let g = gauge_cell k in
  g.g <- g.g +. v

let gauge_value k = (gauge_cell k).g

let observe k v =
  let h = histogram_cell k in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (int * int) list;
}

let summary_of_cell (h : histogram_cell) =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  { count = h.count; sum = h.sum; min = h.mn; max = h.mx; buckets = !buckets }

let histogram_summary k = summary_of_cell (histogram_cell k)

let histogram_mean s =
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

(* bucket i covers [2^(i-16), 2^(i-15)) — see bucket_of *)
let bucket_lo i = Float.ldexp 1.0 (i - 16)
let bucket_hi i = Float.ldexp 1.0 (i - 15)

let quantile s q =
  if s.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int s.count in
    let rec go cum = function
      | [] -> s.max
      | (i, c) :: rest ->
          let cum' = cum +. float_of_int c in
          if cum' >= rank || rest = [] then begin
            let lo = bucket_lo i and hi = bucket_hi i in
            let frac =
              if c = 0 then 0.0
              else Float.max 0.0 (Float.min 1.0 ((rank -. cum) /. float_of_int c))
            in
            Float.max s.min (Float.min s.max (lo +. ((hi -. lo) *. frac)))
          end
          else go cum' rest
    in
    go 0.0 s.buckets
  end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type snapshot = (string * labels * value) list

let snapshot () =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | None -> acc
      | Some ({ key = name, labels; _ }, c) ->
          let v =
            match c with
            | C c -> Counter c.c
            | G g -> Gauge g.g
            | H h -> Histogram (summary_of_cell h)
          in
          (name, labels, v) :: acc)
    [] (current_registry ()).cells
  |> List.sort compare

let entries s = s

let find ?(labels = []) s name =
  let labels = norm_labels labels in
  List.find_map
    (fun (n, l, v) -> if n = name && l = labels then Some v else None)
    s

let counter_total s name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with Counter c when n = name -> acc + c | Counter _ | Gauge _ | Histogram _ -> acc)
    0 s

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let value_fields = function
  | Counter c -> [ ("kind", Json.Str "counter"); ("value", Json.Int c) ]
  | Gauge g -> [ ("kind", Json.Str "gauge"); ("value", Json.Float g) ]
  | Histogram h ->
      [
        ("kind", Json.Str "histogram");
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", if h.count = 0 then Json.Null else Json.Float h.min);
        ("max", if h.count = 0 then Json.Null else Json.Float h.max);
        ( "buckets",
          Json.List
            (List.map
               (fun (i, c) ->
                 Json.Obj
                   [
                     (* upper bound of the bucket, for Prometheus-style "le" *)
                     ("le", Json.Float (bucket_hi i));
                     ("count", Json.Int c);
                   ])
               h.buckets) );
      ]

let to_json s =
  Json.Obj
    [
      ("schema", Json.Str "gsino-metrics-v1");
      ( "metrics",
        Json.List
          (List.map
             (fun (name, labels, v) ->
               Json.Obj
                 (("name", Json.Str name)
                 :: ("labels", labels_json labels)
                 :: value_fields v))
             s) );
    ]

(* ------------------------- snapshot loading ------------------------- *)

(* invert the "le" upper bound back to the log2 bucket index *)
let bucket_of_le what le =
  if le <= 0.0 || not (Float.is_finite le) then
    Json.fail "%s: le %g out of range" what le;
  let i = int_of_float (Float.round (Float.log le /. Float.log 2.0)) + 15 in
  if i < 0 || i >= n_buckets || Float.abs (bucket_hi i -. le) > 1e-9 *. le then
    Json.fail "%s: le %g is not a power of two in range" what le;
  i

let entry_of_json _ j =
  let name = Json.str "metric name" (Json.field "metric" j "name") in
  let get key = Json.field name j key in
  let labels = Json.dict (name ^ ".labels") Json.str (get "labels") in
  let value =
    match Json.str (name ^ ".kind") (get "kind") with
    | "counter" -> Counter (Json.int (name ^ ".value") (get "value"))
    | "gauge" -> Gauge (Json.num (name ^ ".value") (get "value"))
    | "histogram" ->
        let bound key default =
          let v = get key in
          if v = Json.Null then default else Json.num (name ^ "." ^ key) v
        in
        let bucket what b =
          ( bucket_of_le what (Json.num (what ^ ".le") (Json.field what b "le")),
            Json.int (what ^ ".count") (Json.field what b "count") )
        in
        let count = Json.int (name ^ ".count") (get "count") in
        let sum = Json.num (name ^ ".sum") (get "sum") in
        let min = bound "min" infinity in
        let max = bound "max" neg_infinity in
        let buckets = Json.list (name ^ ".buckets") bucket (get "buckets") in
        Histogram { count; sum; min; max; buckets = List.sort compare buckets }
    | kind -> Json.fail "%s: unknown metric kind %s" name kind
  in
  (name, labels, value)

let of_json =
  Json.decode (fun j ->
      Json.schema "gsino-metrics-v1" j;
      List.sort compare
        (Json.list "metrics" entry_of_json (Json.field "snapshot" j "metrics")))

let read_json path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok j -> (
      match of_json j with
      | Ok s -> Ok s
      | Error msg -> Error (path ^ ": " ^ msg))

(* ------------------------------ replay ------------------------------ *)

(* A replay mutates only the calling domain's current registry, so
   replays on distinct domains never share state and may run
   concurrently (the serve daemon's request workers each coordinate
   their own pool).  The hazard is two replays interleaving on the
   *same* domain — two sys-threads sharing its registry — which this
   per-domain flag rejects loudly. *)
let replaying : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let add_histogram (cell : histogram_cell) (hs : histogram_summary) =
  cell.count <- cell.count + hs.count;
  cell.sum <- cell.sum +. hs.sum;
  if hs.min < cell.mn then cell.mn <- hs.min;
  if hs.max > cell.mx then cell.mx <- hs.max;
  List.iter (fun (i, c) -> cell.buckets.(i) <- cell.buckets.(i) + c) hs.buckets

let replay (s : snapshot) =
  let busy = Domain.DLS.get replaying in
  if !busy then
    invalid_arg "Metrics.replay: concurrent replay on one domain (sharding contract violated)";
  busy := true;
  Fun.protect ~finally:(fun () -> busy := false) @@ fun () ->
  List.iter
    (fun (name, labels, v) ->
      match v with
      | Counter n -> add (counter ~labels name) n
      | Gauge g -> set (gauge ~labels name) g
      | Histogram hs -> add_histogram (histogram_cell (histogram ~labels name)) hs)
    s

let record f =
  with_registry (fresh_registry ()) @@ fun () ->
  let v = f () in
  (v, snapshot ())
