open Eda_geom

let magic = "gsino-netlist v1"

let to_string nl =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "name %s\n" nl.Netlist.name);
  Buffer.add_string b
    (Printf.sprintf "grid %d %d %.17g\n" nl.Netlist.grid_w nl.Netlist.grid_h
       nl.Netlist.gcell_um);
  Array.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "net %d %d %d" n.Net.id n.Net.source.Point.x
           n.Net.source.Point.y);
      Array.iter
        (fun s -> Buffer.add_string b (Printf.sprintf " %d %d" s.Point.x s.Point.y))
        n.Net.sinks;
      Buffer.add_char b '\n')
    nl.Netlist.nets;
  Buffer.contents b

(* Sanity ceilings: records beyond these are corrupt or hostile input,
   not plausible benchmarks (the largest ISPD-class grids are ~1e3 a
   side), and rejecting early keeps a bad count from driving a huge
   allocation. *)
let max_grid_dim = 1_000_000
let max_grid_cells = 100_000_000
let max_net_id = 10_000_000
let max_sinks = 100_000

let fail ?file lineno token msg =
  Eda_guard.Error.raise_
    (Eda_guard.Error.Parse { file; line = lineno; token; msg })

let of_string ?file s =
  let fail lineno token msg = fail ?file lineno token msg in
  let lines = String.split_on_char '\n' s in
  let content =
    List.mapi (fun idx raw -> (idx + 1, String.trim raw)) lines
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let last_line = match List.rev content with (n, _) :: _ -> n | [] -> 1 in
  (match content with
  | (_, first) :: _ when first = magic -> ()
  | (lineno, line) :: _ -> fail lineno line "missing magic header"
  | [] -> fail 1 "" "empty input");
  let name = ref None and dims = ref None in
  let nets = ref [] (* (lineno, net), reverse input order *) in
  let parse_int lineno what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno s ("bad " ^ what)
  in
  List.iter
    (fun (lineno, line) ->
      if line <> magic then
        match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
        | "name" :: rest -> name := Some (String.concat " " rest)
        | [ "grid"; w; h; g ] -> (
            match float_of_string_opt g with
            | Some gc ->
                let w = parse_int lineno "grid width" w in
                let h = parse_int lineno "grid height" h in
                if w <= 0 || h <= 0 then
                  fail lineno line "grid dimensions must be positive";
                if w > max_grid_dim || h > max_grid_dim || w * h > max_grid_cells
                then fail lineno line "absurd grid dimensions";
                if gc <= 0.0 || not (Float.is_finite gc) then
                  fail lineno g "gcell pitch must be positive and finite";
                dims := Some (w, h, gc)
            | None -> fail lineno g "bad gcell pitch")
        | [ "grid" ] | "grid" :: _ -> fail lineno line "bad grid record"
        | "net" :: id :: sx :: sy :: sinks ->
            let id = parse_int lineno "net id" id in
            if id < 0 then fail lineno (string_of_int id) "negative net id";
            if id > max_net_id then fail lineno (string_of_int id) "absurd net id";
            if List.length sinks > 2 * max_sinks then
              fail lineno (string_of_int (List.length sinks / 2))
                "absurd sink count";
            let source =
              Point.make (parse_int lineno "x" sx) (parse_int lineno "y" sy)
            in
            let rec pair acc = function
              | [] -> List.rev acc
              | x :: y :: rest ->
                  pair
                    (Point.make (parse_int lineno "x" x) (parse_int lineno "y" y) :: acc)
                    rest
              | [ t ] -> fail lineno t "odd number of sink coordinates"
            in
            let sinks = Array.of_list (pair [] sinks) in
            if Array.length sinks = 0 then fail lineno line "net without sinks";
            nets := (lineno, Net.make ~id ~source ~sinks) :: !nets
        | _ -> fail lineno line "unrecognized record")
    content;
  match (!name, !dims) with
  | None, _ -> fail last_line "" "missing name record"
  | _, None -> fail last_line "" "missing grid record"
  | Some name, Some (grid_w, grid_h, gcell_um) ->
      let located =
        (* stable over input order: on duplicate ids the later line is
           reported ([!nets] accumulates reversed, so re-reverse first). *)
        List.stable_sort
          (fun (_, a) (_, b) -> compare a.Net.id b.Net.id)
          (List.rev !nets)
      in
      (* Ids must be consecutive from 0; report the offending line. *)
      List.iteri
        (fun i (lineno, n) ->
          if n.Net.id <> i then
            if i > 0 && n.Net.id = (List.nth located (i - 1) |> snd).Net.id then
              fail lineno (string_of_int n.Net.id) "duplicate net id"
            else
              fail lineno (string_of_int n.Net.id)
                (Printf.sprintf "non-consecutive net ids (expected %d)" i))
        located;
      (* Pins must sit inside the declared grid; report per line. *)
      let b = Rect.make 0 0 (grid_w - 1) (grid_h - 1) in
      List.iter
        (fun (lineno, n) ->
          List.iter
            (fun p ->
              if not (Rect.contains b p) then
                fail lineno
                  (Printf.sprintf "%d %d" p.Point.x p.Point.y)
                  (Printf.sprintf "pin of net %d outside %dx%d grid" n.Net.id
                     grid_w grid_h))
            (Net.pins n))
        located;
      let nets = Array.of_list (List.map snd located) in
      let nl = Netlist.make ~name ~grid_w ~grid_h ~gcell_um nets in
      (* Safety net: the checks above subsume validate, so this only
         fires on a parser bug. *)
      (try Netlist.validate nl
       with Invalid_argument m -> fail last_line "" m);
      nl

let save path nl =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string nl))

let load path =
  Eda_guard.Fault.point "io.load";
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string ~file:path text
  | exception Sys_error msg ->
      (* an open failure reads "<path>: <reason>"; [file] carries the path *)
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix)
            (String.length msg - String.length prefix)
        else msg
      in
      fail ~file:path 0 "" ("cannot read netlist: " ^ reason)
