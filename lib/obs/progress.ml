type state = {
  interval_ms : int;
  emit : string -> unit;
  t_start : float;  (** monotonic seconds at enable *)
  mutable deadline : (unit -> int option) option;
  mutable phase : string;
  mutable items_done : int;
  mutable items_total : int;  (** 0 = unknown *)
  mutable last_emit : float;
  mutable countdown : int;
      (** ticks left before the next clock read — keeps the enabled-path
          cost of {!tick} at a few loads for all but 1-in-[stride] calls *)
}

let stride = 64

let default_emit line =
  prerr_string line;
  prerr_newline ()

(* The heartbeat is domain-local, like Trace's ring: only a domain that
   called [enable] emits.  Eda_exec workers never enable, so their ticks
   are no-ops and instrumented code can be fanned out freely. *)
let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get state_key

let enable ?(interval_ms = 1000) ?(emit = default_emit) () =
  current ()
  := Some
      {
        interval_ms = max 1 interval_ms;
        emit;
        t_start = Clock.now_s ();
        deadline = None;
        phase = "";
        items_done = 0;
        items_total = 0;
        last_emit = neg_infinity;
        countdown = 0;
      }

let disable () = current () := None
let enabled () = !(current ()) <> None

let set_deadline f =
  match !(current ()) with Some s -> s.deadline <- Some f | None -> ()

let line s now =
  let b = Buffer.create 96 in
  Buffer.add_string b "[gsino] phase=";
  Buffer.add_string b (if s.phase = "" then "-" else s.phase);
  if s.items_done > 0 || s.items_total > 0 then begin
    Printf.bprintf b " items=%d" s.items_done;
    if s.items_total > 0 then
      Printf.bprintf b "/%d (%d%%)" s.items_total
        (int_of_float (100.0 *. float_of_int s.items_done
                       /. float_of_int s.items_total))
  end;
  Printf.bprintf b " elapsed=%.1fs" (now -. s.t_start);
  (match s.deadline with
  | Some f -> (
      match f () with
      | Some ms -> Printf.bprintf b " left=%.1fs" (float_of_int ms /. 1e3)
      | None -> ())
  | None -> ());
  Buffer.contents b

let emit_now s =
  let now = Clock.now_s () in
  s.last_emit <- now;
  s.emit (line s now)

let phase name =
  match !(current ()) with
  | Some s ->
      s.phase <- name;
      s.items_done <- 0;
      s.items_total <- 0;
      s.countdown <- 0;
      emit_now s
  | None -> ()

let tick ?items_total ~items_done () =
  match !(current ()) with
  | None -> ()
  | Some s ->
      s.items_done <- items_done;
      (match items_total with Some t -> s.items_total <- t | None -> ());
      if s.countdown <= 0 then begin
        s.countdown <- stride;
        let now = Clock.now_s () in
        if (now -. s.last_emit) *. 1000.0 >= float_of_int s.interval_ms then begin
          s.last_emit <- now;
          s.emit (line s now)
        end
      end
      else s.countdown <- s.countdown - 1
