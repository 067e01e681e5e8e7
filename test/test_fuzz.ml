(* Mutation fuzzing of the readers of outside input: metrics snapshots
   (`gsino_run diff`), journals (`gsino_run explain`), the diff policy,
   serve frames, the panel store (`Cache.load`), the GSINO_FAULTS spec
   (`Fault.parse`) and the netlist text (`Io.of_string`).  Each
   property starts from documents the program writes or accepts,
   mutates one (truncation, byte flips, splicing two documents, a
   duplicated object key, deeper nesting, a number spelled the way JSON
   forbids; for the store, duplicated and reordered entries, permuted
   slots and extreme integers; for the spec, duplicated entries and
   extreme numbers; for the netlist, duplicated and reordered lines and
   extreme integers) and checks that the reader returns Ok or its typed
   Error: it must never raise.  A lenient number must be an Error, a
   store whose digest no longer matches must load empty, a spec that
   parses names a registered site with a probability in [0, 1] and a
   delay >= 0, and a netlist that parses is valid and prints back to
   itself.  Serve frames are read off a pipe: every announced length
   and body prefix gets the documented frame or reject, and no read
   allocates more than its bound. *)
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

(* ---------------- the panel store ---------------- *)

module Cache = Eda_sino.Cache
module Solver = Eda_sino.Solver
module Instance = Eda_sino.Instance
module Layout = Eda_sino.Layout
module Rng = Eda_util.Rng

let store_request = Solver.request ~seed:3 ()

(* four solved panels and a warm re-solve of the first under a tighter
   bound, so the store holds cold and warm entries *)
let store_panels =
  lazy
    (let rng = Rng.create 5 in
     let panel n =
       Instance.make ~nets:(Array.init n Fun.id)
         ~kth:(Array.init n (fun _ -> 0.3 +. Rng.float rng 1.0))
         ~sensitive:(fun i j -> i <> j && Rng.pair_hash ~seed:n (min i j) (max i j) < 0.5)
     in
     let cold = List.map panel [ 5; 6; 7; 9 ] in
     let first = List.hd cold in
     let warm = (Solver.solve store_request first).Solver.layout in
     (Instance.with_kth first 0 (Instance.kth first 0 /. 2.0), Some warm)
     :: List.map (fun p -> (p, None)) cold)

let store_dir =
  lazy
    (let d = Filename.temp_file "gsino_fuzz_store" "" in
     Sys.remove d;
     Sys.mkdir d 0o755;
     d)

let store_file () = Filename.concat (Lazy.force store_dir) "panels.v2"

let solve_all cache =
  List.map
    (fun (inst, warm) ->
      Layout.slots (Solver.solve ?cache ?warm store_request inst).Solver.layout)
    (Lazy.force store_panels)

(* the solves record their counters here, not in the process's registry *)
let store_registry = lazy (Metrics.fresh_registry ())

(* the store [Cache.save] writes for the panels, split into the body and
   its closing digest line *)
let store_seed =
  lazy
    (Metrics.with_registry (Lazy.force store_registry) @@ fun () ->
     let cache = Cache.create () in
     ignore (solve_all (Some cache));
     Cache.save cache (Lazy.force store_dir);
     let doc = In_channel.with_open_bin (store_file ()) In_channel.input_all in
     let last = String.rindex_from doc (String.length doc - 2) '\n' + 1 in
     (String.sub doc 0 last, String.sub doc last (String.length doc - last)))

let unstored = lazy (solve_all None)

let sign body =
  let body =
    if String.ends_with ~suffix:"\n" body || body = "" then body else body ^ "\n"
  in
  body ^ "sum " ^ Digest.to_hex (Digest.string body) ^ "\n"

(* one entry ([key] .. [end]) repeated after another, or two swapped *)
let on_entries st ~dup doc =
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let ranges = ref [] and start = ref (-1) in
  Array.iteri
    (fun i l ->
      if String.starts_with ~prefix:"key " l then start := i
      else if l = "end" && !start >= 0 then begin
        ranges := (!start, i) :: !ranges;
        start := -1
      end)
    lines;
  let ranges = Array.of_list (List.rev !ranges) in
  let n = Array.length ranges in
  if n < 2 then doc
  else begin
    let entry i =
      let a, b = ranges.(i) in
      Array.to_list (Array.sub lines a (b - a + 1))
    in
    let a = Random.State.int st n and b = Random.State.int st n in
    let entries =
      List.init n (fun i ->
          if dup then if i = a then entry i @ entry b else entry i
          else entry (if i = a then b else if i = b then a else i))
    in
    let first = fst ranges.(0) and last = snd ranges.(n - 1) + 1 in
    String.concat "\n"
      (Array.to_list (Array.sub lines 0 first)
      @ List.concat entries
      @ Array.to_list (Array.sub lines last (Array.length lines - last)))
  end

(* [f] applied to the fields of one line tagged by one of [tags] *)
let on_fields st tags f doc =
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let tagged =
    List.filter
      (fun i ->
        List.exists (fun t -> String.starts_with ~prefix:(t ^ " ") lines.(i)) tags)
      (List.init (Array.length lines) Fun.id)
  in
  match tagged with
  | [] -> doc
  | _ -> (
      let i = List.nth tagged (Random.State.int st (List.length tagged)) in
      match String.split_on_char ' ' lines.(i) with
      | tag :: fields ->
          let fields = Array.of_list fields in
          f fields;
          lines.(i) <- String.concat " " (tag :: Array.to_list fields);
          String.concat "\n" (Array.to_list lines)
      | [] -> doc)

let extreme st fields =
  let tokens =
    [| string_of_int max_int; string_of_int min_int; "-1"; "-2"; "0"; "-0";
       "99999999999999999999"; "4611686018427387904"; "7ff8000000000000" |]
  in
  if Array.length fields > 0 then
    fields.(Random.State.int st (Array.length fields)) <-
      tokens.(Random.State.int st (Array.length tokens))

let store_mutation st doc =
  match Random.State.int st 7 with
  | 0 -> truncate st doc
  | 1 -> flip st doc
  | 2 -> splice st doc doc
  | 3 -> on_entries st ~dup:true doc
  | 4 -> on_entries st ~dup:false doc
  | 5 -> on_fields st [ "slots"; "warm" ] (Rng.shuffle (Rng.create (Random.State.bits st))) doc
  | _ -> on_fields st [ "n"; "kth"; "slots"; "warm"; "effort" ] (extreme st) doc

(* a mutated store, and whether it was re-signed: half are, so their
   entries reach the parser; the rest keep the seed's digest line *)
let store_mutant =
  QCheck.make
    ~print:(fun (doc, signed) ->
      Printf.sprintf "signed %b, %d bytes: %S" signed (String.length doc)
        (String.sub doc 0 (min 400 (String.length doc))))
    (fun st ->
      let body, sum = Lazy.force store_seed in
      if Random.State.bool st then (sign (store_mutation st body), true)
      else (store_mutation st (body ^ sum), false))

(* Every mutant loads without raising, and the panels solve against
   what it loaded without raising.  An unsigned mutant that changed a
   byte loads empty, and then every panel solves as without a store. *)
let store_loads (doc, signed) =
  let body, sum = Lazy.force store_seed in
  Metrics.with_registry (Lazy.force store_registry) @@ fun () ->
  Out_channel.with_open_bin (store_file ()) (fun oc -> output_string oc doc);
  let level = Eda_obs.Log.current_level () in
  Eda_obs.Log.set_level Eda_obs.Log.Quiet;
  let cache =
    Fun.protect
      ~finally:(fun () -> Eda_obs.Log.set_level level)
      (fun () -> Cache.load (Lazy.force store_dir))
  in
  let empty = Cache.length cache = 0 in
  let solved = solve_all (Some cache) in
  signed || String.equal doc (body ^ sum)
  || (empty && solved = Lazy.force unstored)

(* ---------------- the GSINO_FAULTS spec ---------------- *)

module Fault = Eda_guard.Fault

(* specs the CLI accepts: every registered site, mode and option *)
let fault_seeds =
  [|
    "phase2.solve=raise@0.5#42,matrix.lu=nan";
    "io.load=delay:25";
    "exec.worker=raise#123";
    "refine.resolve=raise@0.25#-7, serve.request=delay:5@1";
    "matrix.lu=nan@0#0,io.load=raise@1.0";
  |]

(* one option or delay value (after '@', '#' or ':') replaced by an
   extreme number *)
let extreme_number st doc =
  let marks =
    List.filter
      (fun i -> String.contains "@#:" doc.[i])
      (List.init (String.length doc) Fun.id)
  in
  match marks with
  | [] -> doc
  | _ ->
      let i = List.nth marks (Random.State.int st (List.length marks)) + 1 in
      let j = ref i in
      while !j < String.length doc && not (String.contains "@#:," doc.[!j]) do
        incr j
      done;
      let tokens =
        [| string_of_int max_int; string_of_int min_int; "-1"; "-0"; "0"; "1.0000001";
           "1e308"; "-1e-308"; "nan"; "inf"; "-inf"; "0x1p-1074"; "99999999999999999999";
           "1_000"; "" |]
      in
      String.sub doc 0 i
      ^ tokens.(Random.State.int st (Array.length tokens))
      ^ String.sub doc !j (String.length doc - !j)

(* one entry repeated, inserted again before another or at the end *)
let dup_entry st doc =
  let entries = String.split_on_char ',' doc in
  let n = List.length entries in
  let e = List.nth entries (Random.State.int st n) and at = Random.State.int st (n + 1) in
  String.concat ","
    (List.filteri (fun i _ -> i < at) entries @ (e :: List.filteri (fun i _ -> i >= at) entries))

let fault_mutant =
  QCheck.make ~print:(Printf.sprintf "%S") (fun st ->
      let pick () = fault_seeds.(Random.State.int st (Array.length fault_seeds)) in
      let doc = pick () in
      match Random.State.int st 5 with
      | 0 -> truncate st doc
      | 1 -> flip st doc
      | 2 -> splice st doc (pick ())
      | 3 -> dup_entry st doc
      | _ -> extreme_number st doc)

(* every spec [Fault.parse] returns is one [Fault.set] can install and
   the sites can act on *)
let fault_spec_valid (s : Fault.spec) =
  List.mem s.Fault.site Fault.registered
  && s.prob >= 0.0 && s.prob <= 1.0
  && match s.mode with Fault.Delay ms -> ms >= 0 | Fault.Raise | Fault.Corrupt -> true

(* ---------------- the netlist text ---------------- *)

module Io = Eda_netlist.Io
module Netlist = Eda_netlist.Netlist

(* what [gsino_run gen] writes for the serve-warm netlist's circuit and
   scale, and a three-net netlist with a multi-sink net *)
let netlist_seeds =
  lazy
    [|
      Io.to_string
        (Eda_netlist.Generator.generate ~gcell_um:Gsino.Tech.default.Gsino.Tech.gcell_um
           ~scale:0.02 ~seed:7 Eda_netlist.Generator.ibm01);
      "gsino-netlist v1\nname three\ngrid 4 3 25\nnet 0 0 0 3 2\nnet 1 3 0 0 2 1 1\n\
       net 2 1 2 2 0\n";
    |]

(* one line repeated after another, or two lines swapped *)
let on_lines st ~dup doc =
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let n = Array.length lines in
  let a = Random.State.int st n and b = Random.State.int st n in
  if dup then
    String.concat "\n"
      (List.concat
         (List.mapi (fun i l -> if i = b then [ l; lines.(a) ] else [ l ]) (Array.to_list lines)))
  else begin
    let t = lines.(a) in
    lines.(a) <- lines.(b);
    lines.(b) <- t;
    String.concat "\n" (Array.to_list lines)
  end

(* one integer of a grid or net record spelled as an extreme value *)
let extreme_int st fields =
  let tokens =
    [| string_of_int max_int; string_of_int min_int; "-1"; "4611686018427387904";
       "99999999999999999999"; "0x7fffffffffffffff"; "0x10"; "1_000"; "-0"; "+3" |]
  in
  let n = Array.length fields in
  if n > 0 then
    fields.(Random.State.int st n) <- tokens.(Random.State.int st (Array.length tokens))

let netlist_mutant =
  QCheck.make ~print:(Printf.sprintf "%S") (fun st ->
      let seeds = Lazy.force netlist_seeds in
      let pick () = seeds.(Random.State.int st (Array.length seeds)) in
      let doc = pick () in
      match Random.State.int st 6 with
      | 0 -> truncate st doc
      | 1 -> flip st doc
      | 2 -> splice st doc (pick ())
      | 3 -> on_lines st ~dup:true doc
      | 4 -> on_lines st ~dup:false doc
      | _ -> on_fields st [ "grid"; "net" ] (extreme_int st) doc)

(* A text parses to a valid netlist that prints and parses back to
   itself, or fails with the typed parse error (GSL0020); any other
   exception fails the property. *)
let netlist_parses doc =
  match Io.of_string doc with
  | nl ->
      Netlist.validate nl;
      Io.of_string (Io.to_string nl) = nl
  | exception Error.Error (Error.Parse _) -> true

(* ------------------------------ frames ------------------------------ *)

(* What a frame read may allocate beyond the body's [max] bytes: the
   header buffer, the result and a reject's message. *)
let frame_slack = 1024

(* Bytes allocated so far on this domain.  Not [Gc.allocated_bytes]:
   on OCaml 5.1 its minor part reads an eighth of the words allocated
   since the last minor collection, so a collection during a read
   looks like a burst of allocation. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* A reader bounded by [max], fed a header announcing [len] (any 32-bit
   value), then [body] (a prefix of the announced body, or all of it
   and a few bytes more), then EOF. *)
let frame_case =
  QCheck.make
    ~print:(fun (max, len, body) ->
      Printf.sprintf "max %d, len %d, %d body bytes" max len (String.length body))
    (fun st ->
      let max = Random.State.int st 4097 in
      let len =
        match Random.State.int st 7 with
        | 0 -> Int32.to_int (Int32.logor Int32.min_int (Random.State.bits32 st))
        | 1 -> 0
        | 2 -> max
        | 3 -> max + 1
        | 4 -> 0x7fffffff
        | 5 -> Int32.to_int (Random.State.int32 st Int32.max_int)
        | _ -> Random.State.int st ((2 * max) + 2)
      in
      let sent =
        if len < 0 || len > max then Random.State.int st 65
        else
          match Random.State.int st 3 with
          | 0 -> len
          | 1 -> Random.State.int st (len + 1)
          | _ -> len + Random.State.int st 17
      in
      (max, len, String.init sent (fun _ -> Char.chr (Random.State.int st 256))))

(* [read_frame ~max] over the case's bytes: the frame it announces when
   0 <= len <= max and the whole body arrived, else the documented
   reject, allocating at most [max] bytes plus the slack. *)
let frame_read_as_documented (max, len, body) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  let bytes = Bytes.unsafe_to_string hdr ^ body in
  ignore (Unix.write_substring wr bytes 0 (String.length bytes));
  Unix.close wr;
  let r, allocated =
    Fun.protect ~finally:(fun () -> Unix.close rd) @@ fun () ->
    let a0 = allocated_bytes () in
    let r = Protocol.read_frame ~max rd in
    (r, allocated_bytes () -. a0)
  in
  let rejected what =
    match r with
    | Protocol.Reject (Error.Frame f) -> f.what = what
    | Protocol.Reject _ | Protocol.Frame _ | Protocol.Eof -> false
  in
  allocated <= float_of_int (max + frame_slack)
  &&
  if len < 0 then rejected "bad-length"
  else if len > max then rejected "oversized"
  else if String.length body < len then rejected "truncated"
  else r = Protocol.Frame (String.sub body 0 len)

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
    QCheck.Test.make ~count:cases ~name:"panel store" store_mutant store_loads;
    QCheck.Test.make ~count:cases ~name:"netlist text" netlist_mutant netlist_parses;
    QCheck.Test.make ~count:cases ~name:"fault spec" fault_mutant (fun doc ->
        match Fault.parse doc with
        | Ok specs -> List.for_all fault_spec_valid specs
        | Error (_ : string) -> true);
    QCheck.Test.make ~count:cases ~name:"serve frame" frame_case
      frame_read_as_documented;
  ]

let suites =
  [ ("fuzz.readers", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
