type scalar = { kind : string; value : float }

let scalar_of = function
  | Metrics.Counter c -> { kind = "counter"; value = float_of_int c }
  | Metrics.Gauge g -> { kind = "gauge"; value = g }
  | Metrics.Histogram h -> { kind = "histogram"; value = float_of_int h.Metrics.count }

type change =
  | Added of scalar
  | Removed of scalar
  | Changed of { kind : string; before : float; after : float }
  | Unchanged of scalar

type entry = { name : string; labels : Metrics.labels; change : change }

let delta = function
  | Added s -> s.value
  | Removed s -> -.s.value
  | Changed { before; after; _ } -> after -. before
  | Unchanged _ -> 0.0

let rel_delta = function
  | Added _ | Removed _ -> None
  | Unchanged _ -> Some 0.0
  | Changed { before; after; _ } ->
      if before = 0.0 then None else Some ((after -. before) /. Float.abs before)

let changed e = match e.change with Unchanged _ -> false | Added _ | Removed _ | Changed _ -> true

(* Merge-join on the sorted (name, labels) keys of the two snapshots. *)
let diff before after =
  let key (n, l, _) = (n, l) in
  let rec go acc before after =
    match (before, after) with
    | [], [] -> List.rev acc
    | ((n, l, v) :: rest), [] ->
        go ({ name = n; labels = l; change = Removed (scalar_of v) } :: acc) rest []
    | [], ((n, l, v) :: rest) ->
        go ({ name = n; labels = l; change = Added (scalar_of v) } :: acc) [] rest
    | (((bn, bl, bv) as b) :: brest), (((an, al, av) as a) :: arest) ->
        let c = compare (key b) (key a) in
        if c < 0 then
          go ({ name = bn; labels = bl; change = Removed (scalar_of bv) } :: acc) brest after
        else if c > 0 then
          go ({ name = an; labels = al; change = Added (scalar_of av) } :: acc) before arest
        else begin
          let sb = scalar_of bv and sa = scalar_of av in
          let kind = if sb.kind = sa.kind then sb.kind else sb.kind ^ "->" ^ sa.kind in
          let change =
            if sb.kind = sa.kind && sb.value = sa.value then Unchanged sa
            else Changed { kind; before = sb.value; after = sa.value }
          in
          go ({ name = an; labels = al; change } :: acc) brest arest
        end
  in
  go [] (Metrics.entries before) (Metrics.entries after)

(* ------------------------------ policy ------------------------------ *)

type direction = Up | Down | Any_change

type tolerance = {
  metric : string;
  max_abs : float option;
  max_rel : float option;
  direction : direction;
}

type policy = { tolerances : tolerance list; exclude : string list }

(* [exclude] prefixes drop whole metric families (prof., gc., exec.)
   from both the rendered diff and the gate: these series are wall-clock
   or scheduling shaped, so their drift is noise, and hiding them keeps
   the CI diff output signal-only. *)
let excluded policy name =
  List.exists (fun p -> String.starts_with ~prefix:p name) policy.exclude

let apply_exclude policy entries =
  List.filter (fun e -> not (excluded policy e.name)) entries

let tolerance_of_json what t =
  let metric = Json.str (what ^ ".metric") (Json.field what t "metric") in
  let optional read key = Option.map (read (metric ^ "." ^ key)) (Json.member key t) in
  let direction =
    match optional Json.str "direction" with
    | Some "up" | None -> Up
    | Some "down" -> Down
    | Some "both" -> Any_change
    | Some d -> Json.fail "%s: direction %s is not up|down|both" metric d
  in
  let max_abs = optional Json.num "max_abs" in
  let max_rel = optional Json.num "max_rel" in
  { metric; max_abs; max_rel; direction }

let policy_of_json =
  Json.decode (fun j ->
      Json.schema "gsino-diff-policy-v1" j;
      let tolerances =
        Json.list "tolerances" tolerance_of_json
          (Json.field "policy" j "tolerances")
      in
      let exclude =
        match Json.member "exclude" j with
        | Some l -> Json.list "exclude" Json.str l
        | None -> []
      in
      { tolerances; exclude })

let load_policy path =
  match Json.read_file path with
  | Error msg -> Error (path ^ ": " ^ msg)
  | Ok j -> (
      match policy_of_json j with
      | Ok p -> Ok p
      | Error msg -> Error (path ^ ": " ^ msg))

type breach = { entry : entry option; tolerance : tolerance; reason : string }

let check policy entries =
  let check_one tol =
    let matching = List.filter (fun e -> e.name = tol.metric) entries in
    if matching = [] then
      [
        {
          entry = None;
          tolerance = tol;
          reason = "guarded metric absent from both snapshots";
        };
      ]
    else
      List.filter_map
        (fun e ->
          match e.change with
          | Unchanged _ -> None
          | Added _ ->
              Some
                { entry = Some e; tolerance = tol; reason = "series only in current" }
          | Removed _ ->
              Some
                {
                  entry = Some e;
                  tolerance = tol;
                  reason = "series missing from current";
                }
          | Changed { before; after; _ } ->
              let d = after -. before in
              let in_guarded_direction =
                match tol.direction with
                | Up -> d > 0.0
                | Down -> d < 0.0
                | Any_change -> true
              in
              if not in_guarded_direction then None
              else begin
                let abs_ok =
                  match tol.max_abs with
                  | Some m -> Float.abs d <= m
                  | None -> false
                in
                let rel_ok =
                  match tol.max_rel with
                  | Some m -> before <> 0.0 && Float.abs (d /. before) <= m
                  | None -> false
                in
                if abs_ok || rel_ok then None
                else begin
                  let describe =
                    match (tol.max_abs, tol.max_rel) with
                    | None, None -> "no drift allowed"
                    | Some a, None -> Printf.sprintf "max_abs %g exceeded" a
                    | None, Some r ->
                        Printf.sprintf "max_rel %g%% exceeded" (100.0 *. r)
                    | Some a, Some r ->
                        Printf.sprintf "max_abs %g and max_rel %g%% exceeded" a
                          (100.0 *. r)
                  in
                  Some
                    {
                      entry = Some e;
                      tolerance = tol;
                      reason =
                        Printf.sprintf "%+g (%s -> %s): %s" d
                          (Printf.sprintf "%g" before)
                          (Printf.sprintf "%g" after)
                          describe;
                    }
                end
              end)
        matching
  in
  List.concat_map check_one policy.tolerances

(* ---------------------------- rendering ----------------------------- *)

let series_name name labels =
  match labels with
  | [] -> name
  | l ->
      name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let pp_entry fmt e =
  let id = series_name e.name e.labels in
  match e.change with
  | Added s -> Format.fprintf fmt "+ %-44s %-9s %14s %14g" id s.kind "-" s.value
  | Removed s -> Format.fprintf fmt "- %-44s %-9s %14g %14s" id s.kind s.value "-"
  | Unchanged s ->
      Format.fprintf fmt "  %-44s %-9s %14g %14g" id s.kind s.value s.value
  | Changed { kind; before; after } ->
      let rel =
        if before = 0.0 then "    n/a"
        else Printf.sprintf "%+6.1f%%" (100.0 *. ((after -. before) /. Float.abs before))
      in
      Format.fprintf fmt "~ %-44s %-9s %14g %14g %+14g %s" id kind before after
        (after -. before) rel

let pp_breach fmt b =
  match b.entry with
  | None -> Format.fprintf fmt "%s: %s" b.tolerance.metric b.reason
  | Some e -> Format.fprintf fmt "%s: %s" (series_name e.name e.labels) b.reason
