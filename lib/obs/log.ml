type level = Debug | Info | Warn | Error

type threshold = Level of level | Quiet

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok (Level Debug)
  | "info" -> Ok (Level Info)
  | "warn" | "warning" -> Ok (Level Warn)
  | "error" -> Ok (Level Error)
  | "quiet" | "off" | "none" -> Ok Quiet
  | other -> Error (Printf.sprintf "unknown log level %S" other)

type sink = Human of Format.formatter | Jsonl of out_channel

(* GSINO_LOG=LEVEL, =json, or =json:LEVEL *)
let env_config () =
  match Sys.getenv_opt "GSINO_LOG" with
  | None -> (Level Warn, None)
  | Some v -> (
      let v = String.trim v in
      let json, lvl_str =
        if v = "json" then (true, "")
        else
          match String.index_opt v ':' with
          | Some i when String.lowercase_ascii (String.sub v 0 i) = "json" ->
              (true, String.sub v (i + 1) (String.length v - i - 1))
          | Some _ | None -> (false, v)
      in
      let sink = if json then Some (Jsonl stderr) else None in
      match if lvl_str = "" then Ok (Level Info) else level_of_string lvl_str with
      | Ok t -> (t, sink)
      | Error _ -> (Level Warn, sink))

let threshold, initial_sink = env_config ()
let threshold = ref threshold

let sink = ref (Option.value initial_sink ~default:(Human Format.err_formatter))

let set_level t = threshold := t
let current_level () = !threshold
let set_sink s = sink := s

let would_log lvl =
  match !threshold with Quiet -> false | Level t -> rank lvl >= rank t

(* Request workers, pool workers and the daemon's accept domain all log,
   and a formatter or channel written by two domains at once corrupts
   its queue: one line at a time. *)
let emitting = Mutex.create ()

let emit lvl fields msg =
  Mutex.protect emitting @@ fun () ->
  match !sink with
  | Human fmt ->
      Format.fprintf fmt "gsino: [%s] %s" (level_name lvl) msg;
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) fields;
      Format.fprintf fmt "@."
  | Jsonl oc ->
      let j =
        Json.Obj
          (("level", Json.Str (level_name lvl))
          :: ("msg", Json.Str msg)
          ::
          (match fields with
          | [] -> []
          | f -> [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) f)) ]))
      in
      output_string oc (Json.to_string j);
      output_char oc '\n';
      flush oc

let logf lvl ?(fields = []) fmt =
  if would_log lvl then Format.kasprintf (fun msg -> emit lvl fields msg) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let debug ?fields fmt = logf Debug ?fields fmt
let info ?fields fmt = logf Info ?fields fmt
let warn ?fields fmt = logf Warn ?fields fmt
let error ?fields fmt = logf Error ?fields fmt
