let json_line j = Json.to_string j ^ "\n"
let trace () = json_line (Trace.to_chrome_json ())
let metrics () = json_line (Metrics.to_json (Metrics.snapshot ()))
let journal () = Journal.to_string (Journal.events ())

let profile ~sink rows =
  match sink with "-" -> Prof.to_text rows | _ -> json_line (Prof.to_json rows)

let write sink contents =
  match sink with
  | "-" ->
      print_string contents;
      flush stdout
  | file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc contents)
