(* Unit tests for Eda_obs.Journal: recording gate, dim/data key
   normalisation, the canonical (ev, dim) export sort, JSONL round-trip
   with the schema header, loader error reporting, the Agg folds
   `gsino_run explain` is built on, and a seeded flow's events against
   the vocabulary journal.mli documents. *)
module Journal = Eda_obs.Journal

let with_journal f =
  Journal.disable ();
  Journal.enable ();
  Fun.protect ~finally:Journal.disable f

let ev_t : Journal.event Alcotest.testable =
  Alcotest.testable
    (fun fmt (e : Journal.event) ->
      Format.fprintf fmt "%s dim=[%s] data=[%s] outcome=%s" e.Journal.ev
        (String.concat ";"
           (List.map (fun (k, v) -> k ^ "=" ^ v) e.Journal.dim))
        (String.concat ";"
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%g" k v)
              e.Journal.data))
        (Option.value e.Journal.outcome ~default:"-"))
    ( = )

let test_disabled_is_noop () =
  Journal.disable ();
  Journal.record "net.route" [ ("net", "1") ];
  Alcotest.(check bool) "off" false (Journal.enabled ());
  Alcotest.(check (list ev_t)) "nothing buffered" [] (Journal.events ())

let test_record_normalises_keys () =
  with_journal @@ fun () ->
  Journal.record "panel.solve"
    [ ("sig", "ab"); ("dir", "H"); ("region", "3") ]
    ~data:[ ("time_us", 5.0); ("nets", 2.0) ]
    ~outcome:"feasible";
  match Journal.events () with
  | [ e ] ->
      Alcotest.(check (list (pair string string)))
        "dim sorted"
        [ ("dir", "H"); ("region", "3"); ("sig", "ab") ]
        e.Journal.dim;
      Alcotest.(check (list string))
        "data sorted" [ "nets"; "time_us" ]
        (List.map fst e.Journal.data);
      Alcotest.(check (option string))
        "outcome" (Some "feasible") e.Journal.outcome
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_duplicate_dim_key_rejected () =
  with_journal @@ fun () ->
  Alcotest.check_raises "dup dim"
    (Invalid_argument "Journal: duplicate dim key") (fun () ->
      Journal.record "x" [ ("net", "1"); ("net", "2") ])

let test_canonical_sort () =
  with_journal @@ fun () ->
  Journal.record "net.route" [ ("net", "9") ];
  Journal.record "net.budget" [ ("net", "2") ];
  Journal.record "net.budget" [ ("net", "1") ];
  Alcotest.(check (list string))
    "sorted by (ev, dim)"
    [ "net.budget/1"; "net.budget/2"; "net.route/9" ]
    (List.map
       (fun (e : Journal.event) ->
         e.Journal.ev ^ "/" ^ Option.get (Journal.dim_value e "net"))
       (Journal.events ()))

let test_jsonl_round_trip () =
  with_journal @@ fun () ->
  Journal.record "panel.solve"
    [ ("region", "3"); ("dir", "V"); ("sig", "00ff") ]
    ~data:[ ("time_us", 12.5); ("nets", 4.0) ]
    ~outcome:"feasible";
  Journal.record "net.route" [ ("net", "7") ] ~data:[ ("pops", 3.0) ];
  let evs = Journal.events () in
  let path = Filename.temp_file "journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Eda_obs.Artifact.write path (Eda_obs.Artifact.journal ());
      match Journal.load path with
      | Ok loaded -> Alcotest.(check (list ev_t)) "round trip" evs loaded
      | Error e -> Alcotest.fail e)

let load_string contents =
  let path = Filename.temp_file "journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc contents);
      Journal.load path)

let check_load_error what needle contents =
  match load_string contents with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains msg needle) then
        Alcotest.failf "%s: error %S does not mention %S" what msg needle

let test_loader_errors () =
  check_load_error "empty" "empty journal" "";
  check_load_error "no header" "missing schema header" "{\"ev\":\"x\"}\n";
  check_load_error "wrong schema" "unsupported schema"
    "{\"schema\":\"gsino-journal-v0\"}\n";
  check_load_error "bad line" "line 2"
    "{\"schema\":\"gsino-journal-v1\"}\nnot json\n";
  check_load_error "missing ev" "missing field ev"
    "{\"schema\":\"gsino-journal-v1\"}\n{\"dim\":{}}\n";
  match
    load_string
      "{\"schema\":\"gsino-journal-v1\"}\n\n{\"ev\":\"a\",\"data\":{\"n\":2}}\n"
  with
  | Ok [ e ] ->
      (* blank lines skipped; integer payloads accepted as floats *)
      Alcotest.(check (option (float 0.0))) "int datum" (Some 2.0)
        (Journal.data_value e "n")
  | Ok evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)
  | Error e -> Alcotest.fail e

let mk ev net ?outcome data =
  { Journal.ev; dim = [ ("net", net) ]; data; outcome }

let test_agg_by_dim () =
  let evs =
    [
      mk "net.route" "1" [ ("pops", 2.0) ] ~outcome:"routed";
      mk "net.route" "1" [ ("pops", 3.0); ("reweights", 1.0) ] ~outcome:"routed";
      mk "net.route" "2" [ ("pops", 1.0) ] ~outcome:"empty";
      { Journal.ev = "other"; dim = []; data = []; outcome = None };
    ]
  in
  match Journal.Agg.by_dim "net" evs with
  | [ a; b ] ->
      Alcotest.(check string) "first key" "1" a.Journal.Agg.key;
      Alcotest.(check int) "count" 2 a.Journal.Agg.count;
      Alcotest.(check (float 1e-9)) "summed" 5.0 (Journal.Agg.datum a "pops");
      Alcotest.(check (float 1e-9)) "absent datum" 0.0
        (Journal.Agg.datum b "reweights");
      Alcotest.(check (list (pair string int)))
        "outcomes" [ ("routed", 2) ] a.Journal.Agg.outcomes
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_agg_top () =
  let evs =
    [
      mk "net.route" "a" [ ("pops", 1.0) ];
      mk "net.route" "b" [ ("pops", 9.0) ];
      mk "net.route" "c" [ ("pops", 9.0) ];
      mk "net.route" "d" [ ("pops", 4.0) ];
    ]
  in
  let rows = Journal.Agg.by_dim "net" evs in
  Alcotest.(check (list string))
    "desc with key tiebreak" [ "b"; "c"; "d" ]
    (List.map
       (fun r -> r.Journal.Agg.key)
       (Journal.Agg.top ~by:"pops" ~k:3 rows))

let test_dim_value () =
  Alcotest.(check (option string)) "bound key" (Some "1")
    (Journal.dim_value (mk "net.route" "1" []) "net");
  Alcotest.(check (option string)) "missing key" None
    (Journal.dim_value { Journal.ev = "x"; dim = []; data = []; outcome = None } "net")

(* ------------- the emitted vocabulary vs journal.mli ------------- *)

(* The "Event vocabulary" list of journal.mli, one
   (kind, dims, optional dims, data keys, outcomes) per entry.  An entry
   starts at "- [kind]" and runs to the next one; the list ends with
   the doc comment. *)
let documented_vocabulary () =
  let rec from_header = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"Event vocabulary" l then rest
        else from_header rest
  in
  let rec to_close = function
    | [] -> []
    | l :: rest -> if String.ends_with ~suffix:"*)" l then [ l ] else l :: to_close rest
  in
  let entries =
    In_channel.with_open_text "../lib/obs/journal.mli" In_channel.input_all
    |> String.split_on_char '\n' |> List.map String.trim |> from_header
    |> to_close
    |> List.fold_left
         (fun acc l ->
           match acc with
           | _ when String.starts_with ~prefix:"- [" l -> l :: acc
           | e :: acc -> (e ^ " " ^ l) :: acc
           | [] -> [])
         []
    |> List.rev
  in
  let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") in
  List.map
    (fun e ->
      (* "- [kind] dim [a b (c)]; data [x y]; outcome [p|q]" *)
      match
        String.split_on_char '[' e
        |> List.tl
        |> List.map (fun f -> String.sub f 0 (String.index f ']'))
      with
      | kind :: dims :: data :: outcome ->
          let optional, required =
            List.partition (fun d -> d.[0] = '(') (words dims)
          in
          ( kind,
            required,
            List.map (fun d -> String.sub d 1 (String.length d - 2)) optional,
            words data,
            List.concat_map (String.split_on_char '|') outcome )
      | _ -> Alcotest.failf "unparsable vocabulary entry %S" e)
    entries

let test_vocabulary_matches_docs () =
  let vocab = documented_vocabulary () in
  Alcotest.(check (list string))
    "documented kinds"
    [ "net.budget"; "net.route"; "region.reweight"; "panel.solve";
      "panel.resolve"; "net.refine" ]
    (List.map (fun (kind, _, _, _, _) -> kind) vocab);
  let evs =
    with_journal @@ fun () ->
    let open Gsino in
    let tech = Tech.default in
    let nl =
      Eda_netlist.Generator.generate ~gcell_um:tech.Tech.gcell_um ~scale:0.02
        ~seed:7 Eda_netlist.Generator.ibm01
    in
    let grid, _ = Flow.prepare tech nl in
    ignore
      (Flow.run ~grid
         { Flow.Config.default with Flow.Config.kind = Flow.Gsino; seed = 7 }
         tech
         ~sensitivity:(Eda_netlist.Sensitivity.make ~seed:11 ~rate:0.30)
         nl);
    Journal.events ()
  in
  List.iter
    (fun (kind, required, optional, data, outcomes) ->
      let evs = List.filter (fun e -> e.Journal.ev = kind) evs in
      if evs = [] then Alcotest.failf "the flow emitted no %s event" kind;
      List.iter
        (fun e ->
          let dims = List.map fst e.Journal.dim in
          Alcotest.(check (list string))
            (kind ^ " dims")
            (List.sort compare
               (required @ List.filter (fun d -> List.mem d dims) optional))
            dims;
          Alcotest.(check (list string))
            (kind ^ " data") (List.sort compare data)
            (List.map fst e.Journal.data);
          match (outcomes, e.Journal.outcome) with
          | [], None -> ()
          | _, Some o when List.mem o outcomes -> ()
          | _, o ->
              Alcotest.failf "%s outcome %s is not documented" kind
                (Option.value o ~default:"(none)"))
        evs;
      List.iter
        (fun d ->
          if not (List.exists (fun e -> List.mem_assoc d e.Journal.dim) evs)
          then Alcotest.failf "no %s event carries the optional %s dim" kind d)
        optional)
    vocab

(* ---------------------------- capture ------------------------------ *)

module Metrics = Eda_obs.Metrics

let record_two () =
  Journal.record "region.reweight" [ ("region", "1"); ("dir", "H") ]
    ~data:[ ("reweights", 2.0) ];
  Journal.record "net.route" [ ("net", "2") ] ~data:[ ("pops", 3.0) ]
    ~outcome:"routed"

let journal_events () =
  Metrics.counter_total (Metrics.snapshot ()) "journal.events"

let test_capture_returns_events () =
  Journal.disable ();
  let (v, evs), counted =
    Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
    let r =
      Journal.capture (fun () ->
          record_two ();
          42)
    in
    (r, journal_events ())
  in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check (list string)) "events in recording order"
    [ "region.reweight"; "net.route" ]
    (List.map (fun e -> e.Journal.ev) evs);
  Alcotest.(check (list (pair string string))) "keys normalised"
    [ ("dir", "H"); ("region", "1") ]
    (List.hd evs).Journal.dim;
  Alcotest.(check int) "the capture counts nothing" 0 counted;
  Alcotest.(check bool) "caller's disabled journal restored" false
    (Journal.enabled ())

let test_capture_restores_caller () =
  with_journal @@ fun () ->
  Journal.record "net.budget" [ ("net", "0") ] ~data:[ ("kth", 1.0) ];
  let before = Journal.events () in
  (match
     Journal.capture (fun () ->
         Journal.record "net.route" [ ("net", "8") ];
         failwith "boom")
   with
  | _ -> Alcotest.fail "capture swallowed the exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "still enabled" true (Journal.enabled ());
  Alcotest.(check (list ev_t)) "caller's events kept, none added" before
    (Journal.events ());
  Journal.disable ();
  (try ignore (Journal.capture (fun () -> raise Exit)) with Exit -> ());
  Alcotest.(check bool) "a disabled caller stays disabled" false
    (Journal.enabled ())

let test_replay_equals_recording () =
  let (), captured = Journal.capture record_two in
  let run f =
    Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
    with_journal @@ fun () ->
    Journal.record "net.budget" [ ("net", "0") ] ~data:[ ("kth", 1.0) ];
    f ();
    (Journal.events (), journal_events ())
  in
  let direct_evs, direct_n = run record_two in
  let replayed_evs, replayed_n = run (fun () -> Journal.replay captured) in
  Alcotest.(check (list ev_t)) "events" direct_evs replayed_evs;
  Alcotest.(check int) "journal.events" direct_n replayed_n;
  Alcotest.(check int) "three events counted" 3 replayed_n;
  Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
  Journal.disable ();
  Journal.replay captured;
  Alcotest.(check (list ev_t)) "a disabled journal records nothing" []
    (Journal.events ());
  Alcotest.(check int) "and counts nothing" 0 (journal_events ())

let suites =
  [
    ( "journal.record",
      [
        Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
        Alcotest.test_case "key normalisation" `Quick
          test_record_normalises_keys;
        Alcotest.test_case "duplicate key rejected" `Quick
          test_duplicate_dim_key_rejected;
        Alcotest.test_case "canonical sort" `Quick test_canonical_sort;
      ] );
    ( "journal.capture",
      [
        Alcotest.test_case "returns the events recorded inside" `Quick
          test_capture_returns_events;
        Alcotest.test_case "restores the caller's journal" `Quick
          test_capture_restores_caller;
        Alcotest.test_case "replay equals recording" `Quick
          test_replay_equals_recording;
      ] );
    ( "journal.io",
      [
        Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "loader errors" `Quick test_loader_errors;
      ] );
    ( "journal.agg",
      [
        Alcotest.test_case "by_dim" `Quick test_agg_by_dim;
        Alcotest.test_case "top" `Quick test_agg_top;
        Alcotest.test_case "dim_value" `Quick test_dim_value;
      ] );
    ( "journal.vocabulary",
      [
        Alcotest.test_case "flow events match journal.mli" `Slow
          test_vocabulary_matches_docs;
      ] );
  ]
