type row = {
  name : string;
  calls : int;
  total_us : float;
  self_us : float;
  p95_us : float;
  max_us : float;
}

(* One open span while folding: start timestamp plus the inclusive time
   its direct children have consumed so far (for self-time). *)
type frame = { fname : string; t0 : float; mutable child_us : float }

type acc = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable durs : float list;  (** per-call inclusive durations, newest first *)
}

let exact_quantile q durs =
  match durs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list durs in
      Array.sort compare a;
      let n = Array.length a in
      let i = min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
      a.(i)

let of_events evs =
  let stats : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  let stack = ref [] in
  List.iter
    (fun ev ->
      match ev.Trace.ph with
      | Trace.B -> stack := { fname = ev.Trace.name; t0 = ev.Trace.ts_us; child_us = 0.0 } :: !stack
      | Trace.E -> (
          match !stack with
          | [] -> () (* orphan: begin evicted by the ring; paired_events drops these *)
          | fr :: rest ->
              stack := rest;
              let dur = Float.max 0.0 (ev.Trace.ts_us -. fr.t0) in
              let self = Float.max 0.0 (dur -. fr.child_us) in
              (match rest with parent :: _ -> parent.child_us <- parent.child_us +. dur | [] -> ());
              let a =
                match Hashtbl.find_opt stats fr.fname with
                | Some a -> a
                | None ->
                    let a = { calls = 0; total = 0.0; self = 0.0; durs = [] } in
                    Hashtbl.add stats fr.fname a;
                    a
              in
              a.calls <- a.calls + 1;
              a.total <- a.total +. dur;
              a.self <- a.self +. self;
              a.durs <- dur :: a.durs)
      | Trace.I -> ())
    evs;
  (* spans still open contribute nothing: their durations are unknown *)
  Hashtbl.fold
    (fun name a rows ->
      {
        name;
        calls = a.calls;
        total_us = a.total;
        self_us = a.self;
        p95_us = exact_quantile 0.95 a.durs;
        max_us = List.fold_left Float.max 0.0 a.durs;
      }
      :: rows)
    stats []
  |> List.sort (fun a b ->
         match compare b.self_us a.self_us with 0 -> compare a.name b.name | c -> c)

let current () = of_events (Trace.paired_events ())

let total_self rows = List.fold_left (fun s r -> s +. r.self_us) 0.0 rows

let top_share n rows =
  let all = total_self rows in
  if all <= 0.0 then 1.0
  else begin
    let top =
      List.filteri (fun i _ -> i < n) rows
      |> List.fold_left (fun s r -> s +. r.self_us) 0.0
    in
    top /. all
  end

let to_text ?(top = 10) rows =
  let b = Buffer.create 1024 in
  let all_self = total_self rows in
  Printf.bprintf b
    "Span profile (self-time, top %d of %d spans; traced self total %.2f s)\n"
    (min top (List.length rows))
    (List.length rows) (all_self /. 1e6);
  Printf.bprintf b "  %-32s %8s %12s %12s %6s %11s %11s\n" "span" "calls"
    "total(ms)" "self(ms)" "self%" "p95(ms)" "max(ms)";
  List.iteri
    (fun i r ->
      if top <= 0 || i < top then
        Printf.bprintf b "  %-32s %8d %12.2f %12.2f %5.1f%% %11.3f %11.3f\n"
          r.name r.calls (r.total_us /. 1e3) (r.self_us /. 1e3)
          (if all_self > 0.0 then 100.0 *. r.self_us /. all_self else 0.0)
          (r.p95_us /. 1e3) (r.max_us /. 1e3))
    rows;
  if top > 0 && List.length rows > top then
    Printf.bprintf b "  ... %d more spans (%.1f%% of self time shown)\n"
      (List.length rows - top)
      (100.0 *. top_share top rows);
  Buffer.contents b

let to_json rows =
  Json.Obj
    [
      ("schema", Json.Str "gsino-profile-v1");
      ("total_us", Json.Float (total_self rows));
      ( "spans",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.name);
                   ("calls", Json.Int r.calls);
                   ("total_us", Json.Float r.total_us);
                   ("self_us", Json.Float r.self_us);
                   ("p95_us", Json.Float r.p95_us);
                   ("max_us", Json.Float r.max_us);
                 ])
             rows) );
    ]

let export_metrics rows =
  List.iter
    (fun r ->
      let labels = [ ("span", r.name) ] in
      Metrics.set (Metrics.gauge ~labels "prof.calls") (float_of_int r.calls);
      Metrics.set (Metrics.gauge ~labels "prof.total_us") r.total_us;
      Metrics.set (Metrics.gauge ~labels "prof.self_us") r.self_us)
    rows
