type event = {
  ev : string;
  dim : (string * string) list;
  data : (string * float) list;
  outcome : string option;
}

(* The journal of one domain: the events it recorded, newest first, and
   the journal.events counter, registered by [enable] so binaries that
   never journal don't grow an always-zero series.  Like Trace's ring,
   the state is domain-local: only a domain that called [enable]
   records, so pool workers never do — the flows hand their payloads
   back to the coordinating domain, which records them.  A [capture]
   journal counts nothing: its events are counted where [replay]
   re-records them. *)
type state = { mutable evs : event list; m_events : Metrics.counter option }

let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get state_key)
let enabled () = active () <> None

let enable () =
  Domain.DLS.get state_key
  := Some { evs = []; m_events = Some (Metrics.counter "journal.events") }

let disable () = Domain.DLS.get state_key := None
let clear () = Option.iter (fun s -> s.evs <- []) (active ())

let norm_keys what l =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup rest
    | [ _ ] | [] -> false
  in
  if dup sorted then invalid_arg ("Journal: duplicate " ^ what ^ " key");
  sorted

let record ?(data = []) ?outcome ev dim =
  match active () with
  | None -> ()
  | Some s ->
      if ev = "" then invalid_arg "Journal.record: empty event kind";
      s.evs <-
        { ev; dim = norm_keys "dim" dim; data = norm_keys "data" data; outcome }
        :: s.evs;
      Option.iter Metrics.incr s.m_events

let capture f =
  let cell = Domain.DLS.get state_key in
  let prev = !cell in
  let s = { evs = []; m_events = None } in
  cell := Some s;
  let v = Fun.protect ~finally:(fun () -> cell := prev) f in
  (v, List.rev s.evs)

let replay evs =
  match active () with
  | None -> ()
  | Some s ->
      s.evs <- List.rev_append evs s.evs;
      Option.iter (fun m -> Metrics.add m (List.length evs)) s.m_events

(* ------------------------------- export ------------------------------ *)

let events () =
  (* stable sort: same-key events keep their emission order *)
  match active () with
  | None -> []
  | Some s ->
      List.stable_sort
        (fun a b ->
          match compare a.ev b.ev with 0 -> compare a.dim b.dim | c -> c)
        (List.rev s.evs)

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

let event_of_json what j =
  let ev = Json.str (what ^ ": ev") (Json.field what j "ev") in
  let keyed key value =
    match Json.member key j with
    | Some v -> Json.dict (what ^ ": " ^ key) value v
    | None -> []
  in
  let dim = keyed "dim" Json.str in
  let data = keyed "data" Json.num in
  let outcome =
    Option.map (Json.str (what ^ ": outcome")) (Json.member "outcome" j)
  in
  { ev; dim; data; outcome }

let of_string text =
  let parse n line =
    match Json.of_string line with
    | Ok j -> j
    | Error msg -> Json.fail "line %d: %s" n msg
  in
  let rec events n acc = function
    | [] -> List.rev acc
    | line :: lines when String.trim line = "" -> events (n + 1) acc lines
    | line :: lines ->
        let e = event_of_json (Printf.sprintf "line %d" n) (parse n line) in
        events (n + 1) (e :: acc) lines
  in
  Json.decode
    (function
      | [] | [ "" ] -> Json.fail "empty journal"
      | header :: lines ->
          Json.schema schema (parse 1 header);
          events 2 [] lines)
    (String.split_on_char '\n' text)

let load path =
  if path = "-" then of_string (In_channel.input_all stdin)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Result.map_error (fun msg -> path ^ ": " ^ msg) (of_string text)
    | exception Sys_error msg -> Error msg

(* ------------------------------ folding ------------------------------ *)

let dim_value e k = List.assoc_opt k e.dim
let data_value e k = List.assoc_opt k e.data

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

  let top_nets ~k evs =
    top ~by:"reweights" ~k
      (by_dim "net" (List.filter (fun e -> e.ev = "net.route") evs))

  let panel_events evs =
    List.filter_map
      (fun e ->
        if e.ev = "panel.solve" || e.ev = "panel.resolve" then
          match (dim_value e "region", dim_value e "dir") with
          | Some r, Some d -> Some { e with dim = ("panel", r ^ "/" ^ d) :: e.dim }
          | (Some _ | None), _ -> None
        else None)
      evs

  let top_panels ~k panels = top ~by:"time_us" ~k (by_dim "panel" panels)
end
