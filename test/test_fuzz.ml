(* Mutation fuzzing of the gsino-*-v1 readers: metrics snapshots
   (`gsino_run diff`), journals (`gsino_run explain`), the diff policy
   and serve frames.  Each property starts from documents the program
   writes, mutates one (truncation, byte flips, splicing two documents,
   a duplicated object key, deeper nesting, a number spelled the way
   JSON forbids) and checks that the reader returns Ok or its typed
   Error: it must never raise.  A lenient number must be an Error. *)
module Json = Eda_obs.Json
module Metrics = Eda_obs.Metrics
module Journal = Eda_obs.Journal
module Artifact = Eda_obs.Artifact
module Diff = Eda_obs.Diff
module Protocol = Eda_serve.Protocol
module Error = Eda_guard.Error

let cases = 10_000

(* four nets on a 3x3 grid: a GSINO flow over it at rate 1 journals
   every event kind but net.refine, in under a hundred lines *)
let netlist_text =
  "gsino-netlist v1\nname tiny\ngrid 3 3 10\nnet 0 0 0 2 2\nnet 1 0 2 2 0\n\
   net 2 1 0 1 2\nnet 3 0 1 2 1\n"

(* the metrics snapshot and the journal of one GSINO flow *)
let flow_artifacts =
  lazy
    (let open Gsino in
     let netlist = Eda_netlist.Io.of_string netlist_text in
     Metrics.with_registry (Metrics.fresh_registry ()) @@ fun () ->
     Journal.enable ();
     Fun.protect ~finally:Journal.disable @@ fun () ->
     ignore
       (Flow.run_kinds Flow.Config.default Tech.default ~rate:1.0 [ Flow.Gsino ]
          netlist ~f:Fun.id);
     (Artifact.metrics (), Artifact.journal ()))

(* ---------------- mutations ---------------- *)

let truncate st doc = String.sub doc 0 (Random.State.int st (String.length doc + 1))

let flip st doc =
  let b = Bytes.of_string doc in
  for _ = 1 to 1 + Random.State.int st 4 do
    if Bytes.length b > 0 then
      Bytes.set b
        (Random.State.int st (Bytes.length b))
        (Char.chr (Random.State.int st 256))
  done;
  Bytes.to_string b

let splice st a b =
  let i = Random.State.int st (String.length a + 1)
  and j = Random.State.int st (String.length b + 1) in
  String.sub a 0 i ^ String.sub b j (String.length b - j)

let rec count pred j =
  let inner =
    match j with
    | Json.Obj fields -> List.fold_left (fun n (_, v) -> n + count pred v) 0 fields
    | Json.List l -> List.fold_left (fun n v -> n + count pred v) 0 l
    | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _ -> 0
  in
  inner + if pred j then 1 else 0

(* [j] with [f] applied to the [n]-th node (post-order) satisfying
   [pred] *)
let rewrite_nth pred f n j =
  let seen = ref (-1) in
  let rec go j =
    let j =
      match j with
      | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, go v)) fields)
      | Json.List l -> Json.List (List.map go l)
      | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _) as s
        ->
          s
    in
    if pred j then begin
      incr seen;
      if !seen = n then f j else j
    end
    else j
  in
  go j

let mutate_node st pred f j =
  match count pred j with
  | 0 -> j
  | n -> rewrite_nth pred f (Random.State.int st n) j

(* repeat one field of a non-empty object, with its value or another *)
let dup_key st j =
  let has_fields = function
    | Json.Obj (_ :: _) -> true
    | Json.Obj [] | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
    | Json.Str _ | Json.List _ ->
        false
  in
  mutate_node st has_fields
    (function
      | Json.Obj fields ->
          let k, v = List.nth fields (Random.State.int st (List.length fields)) in
          let v = if Random.State.bool st then v else Json.Str "dup" in
          Json.Obj (fields @ [ (k, v) ])
      | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _
        | Json.List _) as j ->
          j)
    j

(* wrap one node in a few lists, or in enough to cross the parser's
   nesting bound *)
let deepen st j =
  let levels =
    if Random.State.bool st then 1 + Random.State.int st 3
    else Json.max_depth - 8 + Random.State.int st 16
  in
  let rec wrap d j = if d = 0 then j else wrap (d - 1) (Json.List [ j ]) in
  mutate_node st (fun _ -> true) (wrap levels) j

(* respell one number the way JSON forbids and OCaml's conversions
   accept: [+1], [01], [.5] or [1.] (or worse, from a negative or an
   exponent form).  The tree cannot hold such a token, so the node
   becomes a marker string that is replaced in the text. *)
let marker = "lenient-number-marker"

let lenient st j =
  mutate_node st
    (function
      | Json.Int _ | Json.Float _ -> true
      | Json.Null | Json.Bool _ | Json.Str _ | Json.List _ | Json.Obj _ -> false)
    (fun n ->
      let t = Json.to_string n in
      let tok =
        match Random.State.int st 4 with
        | 0 -> "+" ^ t
        | 1 -> "0" ^ t
        | 2 ->
            if String.starts_with ~prefix:"0." t then
              String.sub t 1 (String.length t - 1)
            else "." ^ t
        | _ -> t ^ "."
      in
      Json.Str (marker ^ tok))
    j

(* the marked string's quotes and marker dropped, if there is one *)
let unmark doc =
  let q = "\"" ^ marker in
  let rec find i =
    if i + String.length q > String.length doc then None
    else if String.sub doc i (String.length q) = q then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = String.index_from doc (i + 1) '"' in
      Some
        (String.sub doc 0 i
        ^ String.sub doc (i + String.length q) (j - i - String.length q)
        ^ String.sub doc (j + 1) (String.length doc - j - 1))

(* apply a tree mutation to the document, or to one line of it when it
   is JSONL *)
let on_tree st f doc =
  match Json.of_string doc with
  | Ok j -> Json.to_string (f st j)
  | Error _ ->
      let lines = Array.of_list (String.split_on_char '\n' doc) in
      let i = Random.State.int st (Array.length lines) in
      (match Json.of_string lines.(i) with
      | Ok j -> lines.(i) <- Json.to_string (f st j)
      | Error _ -> ());
      String.concat "\n" (Array.to_list lines)

let mutant seeds =
  let gen st =
    let seeds = Lazy.force seeds in
    let pick () = seeds.(Random.State.int st (Array.length seeds)) in
    let doc = pick () in
    match Random.State.int st 6 with
    | 0 -> truncate st doc
    | 1 -> flip st doc
    | 2 -> splice st doc (pick ())
    | 3 -> on_tree st dup_key doc
    | 4 ->
        let doc' = on_tree st lenient doc in
        Option.value (unmark doc') ~default:doc'
    | _ -> on_tree st deepen doc
  in
  let print doc =
    let n = String.length doc in
    Printf.sprintf "%d bytes: %S" n (String.sub doc 0 (min n 400))
  in
  QCheck.make ~print gen

(* [fuzz name seeds read] — [read] decodes a mutant and says whether
   the result is Ok or the reader's typed Error; an exception fails the
   property *)
let fuzz name seeds read = QCheck.Test.make ~count:cases ~name (mutant seeds) read

(* a string-typed Error is the typed error of the obs readers *)
let returns = function Ok _ | Error (_ : string) -> true

let ok_or_frame_reject = function
  | Ok _ -> true
  | Error e -> Error.gsl_code e = 30

let metrics_seeds = lazy [| fst (Lazy.force flow_artifacts) |]
let journal_seeds = lazy [| snd (Lazy.force flow_artifacts) |]

let policy_seeds =
  lazy
    [|
      In_channel.with_open_bin "../bench/regression_policy.json"
        In_channel.input_all;
    |]

let request_seeds =
  lazy
    (Array.map
       (fun r -> Json.to_string (Protocol.request_to_json r))
       [|
         Protocol.Ping;
         Protocol.Stats;
         Protocol.Route
           {
             netlist = netlist_text;
             options =
               {
                 Protocol.default_options with
                 Protocol.deadline_ms = 250;
                 artifacts = [ Protocol.Metrics; Protocol.Journal ];
               };
           };
       |])

let response_seeds =
  lazy
    (Array.map
       (fun r -> Json.to_string (Protocol.response_to_json r))
       [|
         Protocol.Pong;
         Protocol.Stats_reply
           {
             Protocol.uptime_s = 1.5;
             served = 3;
             errors = 1;
             disconnects = 0;
             rejected = [ ("queue-full", 2) ];
             queue_depth = 0;
             active = 1;
             workers = 2;
             jobs = 1;
             cache_len = 0;
             draining = false;
           };
         Protocol.Result
           {
             status = "ok";
             summary = "GSINO on tiny";
             findings = [ "GSL0005 W region=1/H over capacity" ];
             artifacts = [ ("metrics", fst (Lazy.force flow_artifacts)) ];
           };
         Protocol.error_response
           (Error.Overload { reason = "queue-full"; depth = 4 });
       |])

(* a seed with one number respelled leniently, and the reader that must
   refuse it: every seed but the journal's is one JSON document *)
let lenient_mutant =
  let seeds =
    lazy
      (Array.concat
         [
           Array.map
             (fun d -> (d, fun d -> Result.is_error (Journal.of_string d)))
             (Lazy.force journal_seeds);
           Array.map
             (fun d -> (d, fun d -> Result.is_error (Json.of_string d)))
             (Array.concat
                [
                  Lazy.force metrics_seeds;
                  Lazy.force policy_seeds;
                  Lazy.force request_seeds;
                ]);
         ])
  in
  QCheck.make
    ~print:(fun (doc, _) ->
      Printf.sprintf "%S" (String.sub doc 0 (min 400 (String.length doc))))
    (fun st ->
      let seeds = Lazy.force seeds in
      let doc, refused = seeds.(Random.State.int st (Array.length seeds)) in
      match unmark (on_tree st lenient doc) with
      | Some doc -> (doc, Some refused)
      | None -> (doc, None) (* the picked journal line held no number *))

let qcheck_tests =
  [
    QCheck.Test.make ~count:2_000 ~name:"lenient numbers are rejected"
      lenient_mutant (fun (doc, refused) ->
        match refused with
        | None -> QCheck.assume_fail ()
        | Some refused -> refused doc);
    fuzz "metrics snapshot" metrics_seeds (fun doc ->
        returns (Result.bind (Json.of_string doc) Metrics.of_json));
    fuzz "journal" journal_seeds (fun doc -> returns (Journal.of_string doc));
    fuzz "diff policy" policy_seeds (fun doc ->
        returns (Result.bind (Json.of_string doc) Diff.policy_of_json));
    fuzz "serve request and response"
      (lazy (Array.append (Lazy.force request_seeds) (Lazy.force response_seeds)))
      (fun doc ->
        ok_or_frame_reject (Protocol.request_of_string doc)
        && ok_or_frame_reject (Protocol.response_of_string doc));
  ]

let suites =
  [ ("fuzz.readers", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
