type t =
  | Parse of { file : string option; line : int; token : string; msg : string }
  | Unreachable of { net : int; region : int }
  | Singular_matrix of { n : int; column : int; pivot : float }
  | Worker_crash of { site : string; msg : string }
  | Nonfinite of { site : string; what : string }
  | Frame of { what : string; detail : string }
  | Overload of { reason : string; depth : int }
  | Io of { site : string; msg : string }
  | Usage of { msg : string }

exception Error of t

let class_name = function
  | Parse _ -> "parse-error"
  | Unreachable _ -> "unreachable-grid"
  | Singular_matrix _ -> "singular-matrix"
  | Worker_crash _ -> "worker-crash"
  | Nonfinite _ -> "nonfinite-value"
  | Frame _ -> "bad-frame"
  | Overload _ -> "overloaded"
  | Io _ -> "io-error"
  | Usage _ -> "usage-error"

(* The single error-class -> GSL diagnostic code mapping (README table).
   Codes 1..16 and 18..19 belong to the Eda_check rules (18/19 are its
   degraded-panel and deadline warnings); 17 and 20..23 are runtime
   errors; 29 is a command-line usage error; 30..32 belong to the serve
   protocol layer. *)
let gsl_code = function
  | Unreachable _ -> 17
  | Parse _ -> 20
  | Singular_matrix _ -> 21
  | Worker_crash _ -> 22
  | Nonfinite _ -> 23
  | Usage _ -> 29
  | Frame _ -> 30
  | Overload _ -> 31
  | Io _ -> 32

(* The single error-class -> process exit code mapping.  0 = success
   (possibly degraded), 1 = lint findings / regression breach, then: *)
let exit_code = function
  | Parse _ | Unreachable _ | Frame _ | Usage _ -> 2 (* usage / malformed input *)
  | Singular_matrix _ | Worker_crash _ | Nonfinite _ -> 5 (* internal *)
  | Overload _ -> 6 (* server refused admission *)
  | Io _ -> 7 (* peer/stream I/O failure *)

let to_string = function
  | Parse { file; line; token; msg } ->
      Printf.sprintf "%s%s%s%s"
        (match file with Some f -> f ^ ": " | None -> "")
        (if line > 0 then Printf.sprintf "line %d: " line else "")
        msg
        (if token = "" then "" else Printf.sprintf " (at %S)" token)
  | Unreachable { net; region } ->
      Printf.sprintf
        "net %d: terminal region %d unreachable (disconnected grid)" net region
  | Singular_matrix { n; column; pivot } ->
      Printf.sprintf "singular matrix (n=%d, best |pivot| %.3e in column %d)" n
        pivot column
  | Worker_crash { site; msg } ->
      Printf.sprintf "worker crash at %s: %s" site msg
  | Nonfinite { site; what } ->
      Printf.sprintf "non-finite value at %s: %s" site what
  | Frame { what; detail } -> Printf.sprintf "bad frame (%s): %s" what detail
  | Overload { reason; depth } ->
      Printf.sprintf "request rejected (%s) at queue depth %d" reason depth
  | Io { site; msg } -> Printf.sprintf "i/o failure at %s: %s" site msg
  | Usage { msg } -> msg

let raise_ e = raise (Error e)

(* [Sys_error] carries no errno; the runtime renders EPIPE on stdio
   channels as this exact message suffix. *)
let sys_error_is_pipe msg =
  let suffix = "Broken pipe" in
  let n = String.length msg and k = String.length suffix in
  n >= k && String.sub msg (n - k) k = suffix

(* Known foreign exceptions folded into the taxonomy. *)
let of_exn = function
  | Error e -> Some e
  | Eda_util.Matrix.Singular { n; column; pivot } ->
      Some (Singular_matrix { n; column; pivot })
  | Unix.Unix_error (err, fn, _)
    when err = Unix.EPIPE || err = Unix.ECONNRESET || err = Unix.ESHUTDOWN ->
      Some (Io { site = fn; msg = Unix.error_message err })
  | Sys_error msg when sys_error_is_pipe msg ->
      Some (Io { site = "stdio"; msg })
  | _ -> None

let classify ~site exn =
  match of_exn exn with
  | Some e -> e
  | None -> Worker_crash { site; msg = Printexc.to_string exn }

let () =
  Printexc.register_printer (function
    | Error e ->
        Some (Printf.sprintf "Eda_guard.Error(%s: %s)" (class_name e) (to_string e))
    | _ -> None)
