(* gsino_explain — drill into a gsino-journal-v1 attribution journal.

   Folds the dimension-keyed cost events recorded by `--journal` into
   the views the perf work needs: top-K hottest nets / regions / panels
   by time or churn, a per-net provenance chain (budget -> route ->
   panel -> refine touches), and duplicate-panel grouping by canonical
   signature (`--by-signature`) — the measurement that sizes the
   content-addressed panel cache before it is built.  Exit status: 0 on
   success, 2 when the journal cannot be read. *)
open Cmdliner
module Journal = Eda_obs.Journal
module Agg = Journal.Agg
module C = Cli_common

let journal_pos =
  let doc = "Journal file (gsino-journal-v1 JSONL); '-' reads stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)

let top_arg =
  let doc = "Rows per top-K view." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)

let net_arg =
  let doc =
    "Print the provenance chain of one net: its budget, route churn, the \
     panels it sat in, and every refinement touch."
  in
  Arg.(value & opt (some int) None & info [ "net" ] ~docv:"N" ~doc)

let by_sig_arg =
  let doc =
    "Group panel events by canonical panel signature and report duplicate \
     recurrence — how much SINO work a content-addressed panel cache \
     would have absorbed."
  in
  Arg.(value & flag & info [ "by-signature" ] ~doc)

let is_ev name e = e.Journal.ev = name
let panel_ev e = is_ev "panel.solve" e || is_ev "panel.resolve" e

(* synthesize a panel identity dimension ("region/dir") so panel.solve
   and panel.resolve aggregate into the same row *)
let with_panel_dim evs =
  List.filter_map
    (fun e ->
      match (Journal.dim_value e "region", Journal.dim_value e "dir") with
      | Some r, Some d ->
          Some { e with Journal.dim = ("panel", r ^ "/" ^ d) :: e.Journal.dim }
      | (Some _ | None), _ -> None)
    evs

let ms row field = Agg.datum row field /. 1e3
let i row field = int_of_float (Agg.datum row field)

let pp_outcomes fmt row =
  match row.Agg.outcomes with
  | [] -> ()
  | l ->
      Format.fprintf fmt " [%s]"
        (String.concat " "
           (List.map (fun (o, n) -> Printf.sprintf "%s:%d" o n) l))

let view_summary evs =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace tally e.Journal.ev
        (1 + Option.value (Hashtbl.find_opt tally e.Journal.ev) ~default:0))
    evs;
  let kinds =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] |> List.sort compare
  in
  Format.printf "%d events:%s@." (List.length evs)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) kinds))

let view_top_nets ~k evs =
  let rows =
    Agg.top ~by:"reweights" ~k
      (Agg.by_dim "net" (List.filter (is_ev "net.route") evs))
  in
  if rows <> [] then begin
    Format.printf "@.Top %d nets by route churn (reweights):@."
      (List.length rows);
    Format.printf "  %-8s %10s %10s %10s %10s@." "net" "reweights" "pops"
      "deletions" "essential";
    List.iter
      (fun r ->
        Format.printf "  %-8s %10d %10d %10d %10d%a@." r.Agg.key
          (i r "reweights") (i r "pops") (i r "deletions") (i r "essential")
          pp_outcomes r)
      rows
  end

let view_top_refined ~k evs =
  let rows =
    Agg.top ~by:"time_us" ~k
      (Agg.by_dim "net" (List.filter (is_ev "panel.resolve") evs))
  in
  if rows <> [] then begin
    Format.printf "@.Top %d nets by refinement time:@." (List.length rows);
    Format.printf "  %-8s %10s %10s@." "net" "time_ms" "resolves";
    List.iter
      (fun r ->
        Format.printf "  %-8s %10.2f %10d%a@." r.Agg.key (ms r "time_us")
          r.Agg.count pp_outcomes r)
      rows
  end

let view_top_regions ~k evs =
  let rows =
    Agg.top ~by:"reweights" ~k
      (Agg.by_dim "region" (List.filter (is_ev "region.reweight") evs))
  in
  if rows <> [] then begin
    Format.printf "@.Top %d regions by reweights:@." (List.length rows);
    Format.printf "  %-8s %10s@." "region" "reweights";
    List.iter
      (fun r -> Format.printf "  %-8s %10d@." r.Agg.key (i r "reweights"))
      rows
  end

let view_top_panels ~k evs =
  let panels = with_panel_dim (List.filter panel_ev evs) in
  let rows = Agg.top ~by:"time_us" ~k (Agg.by_dim "panel" panels) in
  if rows <> [] then begin
    let total =
      List.fold_left
        (fun acc e ->
          acc +. Option.value (Journal.data_value e "time_us") ~default:0.0)
        0.0 panels
    in
    Format.printf "@.Top %d panels by SINO time (total %.2f ms over %d events):@."
      (List.length rows) (total /. 1e3) (List.length panels);
    Format.printf "  %-10s %10s %10s %10s@." "panel" "time_ms" "events"
      "shields";
    List.iter
      (fun r ->
        Format.printf "  %-10s %10.2f %10d %10d%a@." r.Agg.key (ms r "time_us")
          r.Agg.count (i r "shields") pp_outcomes r)
      rows
  end

let view_by_signature ~k evs =
  let panels = List.filter panel_ev evs in
  let rows = Agg.by_dim "sig" panels in
  let total = List.fold_left (fun acc r -> acc + r.Agg.count) 0 rows in
  let unique = List.length rows in
  let dup_events = total - unique in
  let dup_time =
    List.fold_left
      (fun acc r ->
        if r.Agg.count > 1 then
          (* first sight would still be solved; repeats are cacheable *)
          acc
          +. Agg.datum r "time_us"
             *. (float_of_int (r.Agg.count - 1) /. float_of_int r.Agg.count)
        else acc)
      0.0 rows
  in
  Format.printf
    "@.Panel signatures: %d events, %d unique, %d duplicates (%.1f%% \
     cacheable, ~%.2f ms of repeat SINO work)@."
    total unique dup_events
    (if total = 0 then 0.0
     else 100.0 *. float_of_int dup_events /. float_of_int total)
    (dup_time /. 1e3);
  let rows = Agg.top ~by:"time_us" ~k (List.filter (fun r -> r.Agg.count > 1) rows) in
  if rows <> [] then begin
    Format.printf "  %-18s %8s %10s %8s@." "signature" "events" "time_ms"
      "nets";
    List.iter
      (fun r ->
        Format.printf "  %-18s %8d %10.2f %8d%a@." r.Agg.key r.Agg.count
          (ms r "time_us")
          (i r "nets" / max 1 r.Agg.count)
          pp_outcomes r)
      rows
  end

let member_of net e =
  match Journal.dim_value e "members" with
  | None -> false
  | Some m -> List.mem (string_of_int net) (String.split_on_char ',' m)

let pp_chain_event fmt e =
  let dim k = Journal.dim_value e k in
  let datum k =
    match Journal.data_value e k with
    | None -> ""
    | Some v ->
        if Float.is_integer v then Printf.sprintf " %s=%.0f" k v
        else Printf.sprintf " %s=%g" k v
  in
  let where =
    match (dim "region", dim "dir") with
    | Some r, Some d -> Printf.sprintf " region %s/%s" r d
    | (Some _ | None), _ -> ""
  in
  let pass = match dim "pass" with Some p -> " " ^ p | None -> "" in
  let sg = match dim "sig" with Some s -> " sig " ^ s | None -> "" in
  let outcome =
    match e.Journal.outcome with Some o -> " -> " ^ o | None -> ""
  in
  Format.fprintf fmt "  %-14s%s%s%s%s%s" e.Journal.ev pass where sg
    (String.concat ""
       (List.map (fun (k, _) -> datum k) e.Journal.data))
    outcome

let view_net net evs =
  let mine =
    List.filter
      (fun e ->
        Journal.dim_value e "net" = Some (string_of_int net)
        || (is_ev "panel.solve" e && member_of net e))
      evs
  in
  if mine = [] then Format.printf "net %d: no journal events@." net
  else begin
    Format.printf "@.Provenance of net %d (%d events):@." net
      (List.length mine);
    (* budget -> route -> panels solved around it -> refine touches *)
    let order e =
      match e.Journal.ev with
      | "net.budget" -> 0
      | "net.route" -> 1
      | "panel.solve" -> 2
      | "panel.resolve" -> 3
      | "net.refine" -> 4
      | _ -> 5
    in
    List.stable_sort (fun a b -> compare (order a) (order b)) mine
    |> List.iter (fun e -> Format.printf "%a@." pp_chain_event e)
  end

let run top net by_sig verbose quiet file =
  C.set_verbosity ~verbose ~quiet;
  C.guard_exceptions @@ fun () ->
  match Journal.load file with
  | Error msg ->
      Format.eprintf "gsino_explain: %s@." msg;
      exit C.exit_usage
  | Ok evs ->
      let k = max 1 top in
      view_summary evs;
      (match net with
      | Some n -> view_net n evs
      | None ->
          view_top_nets ~k evs;
          view_top_refined ~k evs;
          view_top_regions ~k evs;
          view_top_panels ~k evs);
      if by_sig || net = None then view_by_signature ~k evs;
      C.exit_ok

let cmd =
  let doc = "Explain where a routing run spent its work" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Folds a gsino-journal-v1 attribution journal (from $(b,gsino_run \
         --journal)) into drill-down views: the hottest nets by route \
         churn, the nets refinement spent the most SINO time on, the \
         regions with the most edge reweights, the most expensive panels, \
         and — with $(b,--by-signature) — duplicate-panel recurrence by \
         canonical signature, the sizing measurement for the \
         content-addressed panel cache.";
      `P
        "With $(b,--net) the drill-down becomes one net's provenance \
         chain: budget, route churn, the panels it sat in and every \
         refinement touch, in flow order.";
      `P "Exits 0 on success, 2 when the journal cannot be read.";
    ]
  in
  Cmd.v
    (Cmd.info "gsino_explain" ~version:"1.0.0" ~doc ~man)
    Term.(const run $ top_arg $ net_arg $ by_sig_arg $ C.verbose_arg
          $ C.quiet_arg $ journal_pos)

let () = exit (Cmd.eval' cmd)
