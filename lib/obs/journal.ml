type event = {
  ev : string;
  dim : (string * string) list;
  data : (string * float) list;
  outcome : string option;
}

(* Recording must stay near-free when the journal is off: a run without
   --journal pays one atomic load per call site.  The flag is process-
   global (workers inherit it; it is set on the coordinator before the
   pool spawns). *)
let on = Atomic.make false
let enabled () = Atomic.get on

(* Per-domain shard, mirroring Metrics: every domain buffers privately,
   so recording never shares a mutable cell across domains. *)
let shard_key : event list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let shard () = Domain.DLS.get shard_key

(* The journal observes itself: journal.events counts recorded events.
   Registered on [enable] (coordinator, before workers exist) so binaries
   that never journal don't grow an always-zero series. *)
let h_events : Metrics.counter option ref = ref None

let enable () =
  if !h_events = None then h_events := Some (Metrics.counter "journal.events");
  Atomic.set on true

let clear () = shard () := []

let disable () =
  Atomic.set on false;
  clear ()

let norm_keys what l =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup rest
    | [ _ ] | [] -> false
  in
  if dup sorted then invalid_arg ("Journal: duplicate " ^ what ^ " key");
  sorted

let record ?(data = []) ?outcome ev dim =
  if Atomic.get on then begin
    if ev = "" then invalid_arg "Journal.record: empty event kind";
    let e =
      { ev; dim = norm_keys "dim" dim; data = norm_keys "data" data; outcome }
    in
    let s = shard () in
    s := e :: !s;
    match !h_events with Some h -> Metrics.incr h | None -> ()
  end

(* ------------------------------ sharding ----------------------------- *)

let drain () =
  let s = shard () in
  let evs = List.rev !s in
  s := [];
  evs

let absorb evs =
  let s = shard () in
  s := List.rev_append evs !s

(* ------------------------------- export ------------------------------ *)

let events () =
  (* stable sort: same-key events keep their (deterministic, sequential)
     emission order; cross-domain interleaving is normalised away because
     parallel-phase events are unique per (ev, dim) *)
  List.stable_sort
    (fun a b ->
      match compare a.ev b.ev with 0 -> compare a.dim b.dim | c -> c)
    (List.rev !(shard ()))

let schema = "gsino-journal-v1"

let event_json e =
  let strs l = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l) in
  let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.Obj
    (("ev", Json.Str e.ev)
    :: ("dim", strs e.dim)
    :: ("data", nums e.data)
    ::
    (match e.outcome with
    | Some o -> [ ("outcome", Json.Str o) ]
    | None -> []))

let to_string evs =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Json.to_string (Json.Obj [ ("schema", Json.Str schema) ]));
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (event_json e));
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

(* ------------------------------ loading ------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let event_of_json line j =
  let str what = function
    | Json.Str s -> s
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.List _
    | Json.Obj _ ->
        fail "line %d: %s: expected a string" line what
  in
  let strs what = function
    | Json.Obj fields ->
        List.map (fun (k, v) -> (k, str (what ^ "." ^ k) v)) fields
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _
    | Json.List _ ->
        fail "line %d: %s: expected an object" line what
  in
  let nums what = function
    | Json.Obj fields ->
        List.map
          (fun (k, v) ->
            match v with
            | Json.Int i -> (k, float_of_int i)
            | Json.Float f -> (k, f)
            | Json.Null | Json.Bool _ | Json.Str _ | Json.List _ | Json.Obj _
              ->
                fail "line %d: %s.%s: expected a number" line what k)
          fields
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _
    | Json.List _ ->
        fail "line %d: %s: expected an object" line what
  in
  let ev =
    match Json.member "ev" j with
    | Some v -> str "ev" v
    | None -> fail "line %d: missing field ev" line
  in
  let field f decode =
    match Json.member f j with Some v -> decode f v | None -> []
  in
  {
    ev;
    dim = norm_keys "dim" (field "dim" strs);
    data = norm_keys "data" (field "data" nums);
    outcome = Option.map (str "outcome") (Json.member "outcome" j);
  }

let read_channel ic =
  let parse line_no line =
    match Json.of_string line with
    | Error msg -> fail "line %d: %s" line_no msg
    | Ok j -> j
  in
  match
    let header =
      match input_line ic with
      | line -> parse 1 line
      | exception End_of_file -> fail "empty journal"
    in
    (match Json.member "schema" header with
    | Some (Json.Str s) when s = schema -> ()
    | Some (Json.Str s) -> fail "unsupported schema %s (want %s)" s schema
    | Some
        ( Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.List _
        | Json.Obj _ )
    | None ->
        fail "missing schema header (want %s)" schema);
    let evs = ref [] in
    let line_no = ref 1 in
    (try
       while true do
         let line = input_line ic in
         incr line_no;
         if String.trim line <> "" then
           evs := event_of_json !line_no (parse !line_no line) :: !evs
       done
     with End_of_file -> ());
    List.rev !evs
  with
  | evs -> Ok evs
  | exception Bad msg -> Error msg

let load path =
  if path = "-" then read_channel stdin
  else
    match open_in path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            match read_channel ic with
            | Ok evs -> Ok evs
            | Error msg -> Error (path ^ ": " ^ msg))
    | exception Sys_error msg -> Error msg

(* ------------------------------ folding ------------------------------ *)

let dim_value e k = List.assoc_opt k e.dim
let data_value e k = List.assoc_opt k e.data

let filter_dim ~key ~value evs =
  List.filter (fun e -> dim_value e key = Some value) evs

module Agg = struct
  type row = {
    key : string;
    count : int;
    data : (string * float) list;
    outcomes : (string * int) list;
  }

  let bump tbl k f init =
    Hashtbl.replace tbl k
      (f (Option.value (Hashtbl.find_opt tbl k) ~default:init))

  let by_dim key evs =
    let groups : (string, event list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match dim_value e key with
        | None -> ()
        | Some v -> (
            match Hashtbl.find_opt groups v with
            | Some r -> r := e :: !r
            | None -> Hashtbl.add groups v (ref [ e ])))
      evs;
    Hashtbl.fold
      (fun k evs acc ->
        let data = Hashtbl.create 8 and outcomes = Hashtbl.create 4 in
        List.iter
          (fun (e : event) ->
            List.iter (fun (f, v) -> bump data f (fun a -> a +. v) 0.0) e.data;
            match e.outcome with
            | Some o -> bump outcomes o (fun a -> a + 1) 0
            | None -> ())
          !evs;
        {
          key = k;
          count = List.length !evs;
          data =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) data []
            |> List.sort compare;
          outcomes =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []
            |> List.sort compare;
        }
        :: acc)
      groups []
    |> List.sort (fun a b -> compare a.key b.key)

  let datum row name = Option.value (List.assoc_opt name row.data) ~default:0.0

  let top ~by ~k rows =
    let sorted =
      List.sort
        (fun a b ->
          match compare (datum b by) (datum a by) with
          | 0 -> compare a.key b.key
          | c -> c)
        rows
    in
    List.filteri (fun i _ -> i < k) sorted
end
