module Json = Eda_obs.Json
module Error = Eda_guard.Error
module Flow = Gsino.Flow

let schema = "gsino-serve-v1"
let max_frame_default = 64 * 1024 * 1024

(* ------------------------------ framing ------------------------------ *)

exception Timeout

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > 0x7fffffff then invalid_arg "Protocol.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  write_all fd (Bytes.unsafe_to_string hdr) 0 4;
  write_all fd payload 0 n

let wait_readable ~timeout_s fd =
  match timeout_s with
  | None -> ()
  | Some t -> (
      match Unix.select [ fd ] [] [] t with
      | [], _, _ -> raise Timeout
      | _ :: _, _, _ -> ())

(* Read up to [len] bytes, stopping early only at EOF; returns the count
   actually read.  [timeout_s] bounds each wait for more bytes. *)
let read_upto ~timeout_s fd buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       wait_readable ~timeout_s fd;
       let n = Unix.read fd buf (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

type read_result =
  | Frame of string
  | Eof  (** peer closed cleanly before the first header byte *)
  | Reject of Error.t

let read_frame ?(max = max_frame_default) ?timeout_s fd =
  let hdr = Bytes.create 4 in
  try
    match read_upto ~timeout_s fd hdr 0 4 with
    | 0 -> Eof
    | n when n < 4 ->
        Reject
          (Error.Frame
             {
               what = "truncated";
               detail = Printf.sprintf "header: got %d of 4 bytes" n;
             })
    | _ ->
        let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
        if len < 0 then
          Reject
            (Error.Frame
               { what = "bad-length"; detail = "negative frame length" })
        else if len > max then
          (* reject before reading the body: an oversized announcement
             must not make the server buffer it *)
          Reject
            (Error.Frame
               {
                 what = "oversized";
                 detail =
                   Printf.sprintf "%d-byte frame exceeds the %d-byte limit" len
                     max;
               })
        else begin
          let buf = Bytes.create len in
          let n = read_upto ~timeout_s fd buf 0 len in
          if n < len then
            Reject
              (Error.Frame
                 {
                   what = "truncated";
                   detail = Printf.sprintf "body: got %d of %d bytes" n len;
                 })
          else Frame (Bytes.unsafe_to_string buf)
        end
  with Timeout ->
    Reject
      (Error.Frame
         { what = "timeout"; detail = "peer stalled mid-frame" })

(* ------------------------- request vocabulary ------------------------ *)

type artifact = Report | Metrics | Journal | Trace

(* Each value's one spelling on the wire.  Routers and budgeting modes
   are spelled as Flow spells them for the CLIs. *)
let artifact_names =
  [ ("report", Report); ("metrics", Metrics); ("journal", Journal); ("trace", Trace) ]

let flow_names = [ ("idno", Flow.Id_no); ("isino", Flow.Isino); ("gsino", Flow.Gsino) ]

(* [v]'s spelling in [names] *)
let name_in names v = fst (List.find (fun (_, x) -> x = v) names)

let artifact_name = name_in artifact_names
let artifact_of_name name = List.assoc_opt name artifact_names

type options = {
  kind : Flow.kind;
  router : Flow.router;
  budgeting : Flow.budgeting;
  seed : int;
  rate : float;
  deadline_ms : int;
  artifacts : artifact list;
}

let default_options =
  {
    kind = Flow.Gsino;
    router = Flow.Iterative_deletion;
    budgeting = Flow.Uniform;
    seed = 7;
    rate = 0.30;
    deadline_ms = 0;
    artifacts = [];
  }

type request = Ping | Stats | Route of { netlist : string; options : options }

type stats = {
  uptime_s : float;
  served : int;
  errors : int;
  disconnects : int;
  rejected : (string * int) list;
  queue_depth : int;
  active : int;
  workers : int;
  jobs : int;
  cache_len : int;
  draining : bool;
}

type response =
  | Pong
  | Stats_reply of stats
  | Result of {
      status : string;
      summary : string;
      findings : string list;
      artifacts : (string * string) list;
    }
  | Err of { cls : string; gsl : int; exit_code : int; message : string }

let error_response e =
  Err
    {
      cls = Error.class_name e;
      gsl = Error.gsl_code e;
      exit_code = Error.exit_code e;
      message = Error.to_string e;
    }

(* ------------------------------ encoding ----------------------------- *)

let options_to_json o =
  Json.Obj
    [
      ("flow", Json.Str (name_in flow_names o.kind));
      ("router", Json.Str (name_in Flow.routers o.router));
      ("budgeting", Json.Str (name_in Flow.budgetings o.budgeting));
      ("seed", Json.Int o.seed);
      ("rate", Json.Float o.rate);
      ("deadline_ms", Json.Int o.deadline_ms);
      ( "artifacts",
        Json.List (List.map (fun a -> Json.Str (artifact_name a)) o.artifacts)
      );
    ]

let with_schema fields = Json.Obj (("schema", Json.Str schema) :: fields)

let request_to_json = function
  | Ping -> with_schema [ ("kind", Json.Str "ping") ]
  | Stats -> with_schema [ ("kind", Json.Str "stats") ]
  | Route { netlist; options } ->
      with_schema
        [
          ("kind", Json.Str "route");
          ("netlist", Json.Str netlist);
          ("options", options_to_json options);
        ]

let stats_to_json s =
  with_schema
    [
      ("kind", Json.Str "stats");
      ("uptime_s", Json.Float s.uptime_s);
      ("served", Json.Int s.served);
      ("errors", Json.Int s.errors);
      ("disconnects", Json.Int s.disconnects);
      ( "rejected",
        Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) s.rejected) );
      ("queue_depth", Json.Int s.queue_depth);
      ("active", Json.Int s.active);
      ("workers", Json.Int s.workers);
      ("jobs", Json.Int s.jobs);
      ("cache_len", Json.Int s.cache_len);
      ("draining", Json.Bool s.draining);
    ]

let response_to_json = function
  | Pong -> with_schema [ ("kind", Json.Str "pong") ]
  | Stats_reply s -> stats_to_json s
  | Result { status; summary; findings; artifacts } ->
      with_schema
        [
          ("kind", Json.Str "result");
          ("status", Json.Str status);
          ("summary", Json.Str summary);
          ("findings", Json.List (List.map (fun f -> Json.Str f) findings));
          ( "artifacts",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) artifacts) );
        ]
  | Err { cls; gsl; exit_code; message } ->
      with_schema
        [
          ("kind", Json.Str "error");
          ("class", Json.Str cls);
          ("gsl", Json.Int gsl);
          ("exit", Json.Int exit_code);
          ("message", Json.Str message);
        ]

(* ------------------------------ decoding ----------------------------- *)

let named names what v =
  let name = Json.str what v in
  match List.assoc_opt name names with
  | Some x -> x
  | None -> Json.fail "%s: unknown value %S" what name

let options_of_json j =
  List.fold_left
    (fun o (k, v) ->
      match k with
      | "flow" -> { o with kind = named flow_names "options.flow" v }
      | "router" -> { o with router = named Flow.routers "options.router" v }
      | "budgeting" ->
          { o with budgeting = named Flow.budgetings "options.budgeting" v }
      | "seed" -> { o with seed = Json.int "options.seed" v }
      | "rate" ->
          let rate = Json.num "options.rate" v in
          if not (rate >= 0.0 && rate <= 1.0) then
            Json.fail "options.rate: %g is outside [0, 1]" rate;
          { o with rate }
      | "deadline_ms" -> { o with deadline_ms = Json.int "options.deadline_ms" v }
      | "artifacts" ->
          {
            o with
            artifacts = Json.list "options.artifacts" (named artifact_names) v;
          }
      | k -> Json.fail "options: unknown field %S" k)
    default_options (Json.obj "options" j)

(* [decode f s] — parse frame [s] and decode it with [f]: a JSON error is
   a bad-json reject, a decode error a bad-schema one. *)
let decode f s =
  match Json.of_string s with
  | Error msg -> Error (Error.Frame { what = "bad-json"; detail = msg })
  | Ok j ->
      Result.map_error
        (fun detail -> Error.Frame { what = "bad-schema"; detail })
        (Json.decode f j)

let request_of_json j =
  Json.schema schema j;
  match Json.str "kind" (Json.field "request" j "kind") with
  | "ping" -> Ping
  | "stats" -> Stats
  | "route" ->
      let netlist = Json.str "netlist" (Json.field "route request" j "netlist") in
      let options =
        match Json.member "options" j with
        | Some o -> options_of_json o
        | None -> default_options
      in
      Route { netlist; options }
  | k -> Json.fail "unknown request kind %S" k

let request_of_string = decode request_of_json

let stats_of_json j =
  let get key = Json.field "stats" j key in
  let int key = Json.int key (get key) in
  {
    uptime_s = Json.num "uptime_s" (get "uptime_s");
    served = int "served";
    errors = int "errors";
    disconnects = int "disconnects";
    rejected =
      List.map
        (fun (k, v) -> (k, Json.int ("rejected." ^ k) v))
        (Json.obj "stats.rejected" (get "rejected"));
    queue_depth = int "queue_depth";
    active = int "active";
    workers = int "workers";
    jobs = int "jobs";
    cache_len = int "cache_len";
    draining = Json.bool "draining" (get "draining");
  }

let response_of_json j =
  Json.schema schema j;
  let get what key = Json.field what j key in
  match Json.str "kind" (get "response" "kind") with
  | "pong" -> Pong
  | "stats" -> Stats_reply (stats_of_json j)
  | "result" ->
      Result
        {
          status = Json.str "status" (get "result" "status");
          summary = Json.str "summary" (get "result" "summary");
          findings = Json.list "findings" Json.str (get "result" "findings");
          artifacts =
            List.map
              (fun (k, v) -> (k, Json.str ("artifacts." ^ k) v))
              (Json.obj "result.artifacts" (get "result" "artifacts"));
        }
  | "error" ->
      Err
        {
          cls = Json.str "class" (get "error" "class");
          gsl = Json.int "gsl" (get "error" "gsl");
          exit_code = Json.int "exit" (get "error" "exit");
          message = Json.str "message" (get "error" "message");
        }
  | k -> Json.fail "unknown response kind %S" k

let response_of_string = decode response_of_json

let send fd msg = write_frame fd (Json.to_string msg)
let send_request fd r = send fd (request_to_json r)
let send_response fd r = send fd (response_to_json r)
