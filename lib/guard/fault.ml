type mode = Raise | Delay of int | Corrupt

type spec = { site : string; mode : mode; prob : float; seed : int }

type slot = {
  spec : spec;
  rng : Eda_util.Rng.t;
  mu : Mutex.t;
  injected : Eda_obs.Metrics.counter;
}

let env_var = "GSINO_FAULTS"

(* [enabled] is the fast path: with no faults configured, [point] is one
   atomic load and a branch.  The table itself is written only by [set] /
   [clear] (coordinator, before workers exist) and read afterwards. *)
let enabled = Atomic.make false
let slots : (string, slot) Hashtbl.t = Hashtbl.create 7

let default_seed site = Hashtbl.hash ("gsino-fault", site)

let registered =
  [ "exec.worker"; "io.load"; "matrix.lu"; "phase2.solve"; "refine.resolve";
    "serve.request" ]

let parse_one raw =
  let s = String.trim raw in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  match String.index_opt s '=' with
  | None -> err "fault spec %S: expected site=mode[@prob][#seed]" s
  | Some eq -> (
      let site = String.sub s 0 eq in
      let rest = String.sub s (eq + 1) (String.length s - eq - 1) in
      let* () =
        if List.mem site registered then Ok ()
        else
          err "fault spec %S: unknown site %S (known: %s)" s site
            (String.concat ", " registered)
      in
      let* rest, seed =
        match String.index_opt rest '#' with
        | None -> Ok (rest, default_seed site)
        | Some h -> (
            let v = String.sub rest (h + 1) (String.length rest - h - 1) in
            match int_of_string_opt v with
            | Some n -> Ok (String.sub rest 0 h, n)
            | None -> err "fault spec %S: bad seed %S" s v)
      in
      let* rest, prob =
        match String.index_opt rest '@' with
        | None -> Ok (rest, 1.0)
        | Some a -> (
            let v = String.sub rest (a + 1) (String.length rest - a - 1) in
            match float_of_string_opt v with
            | Some p when p >= 0.0 && p <= 1.0 -> Ok (String.sub rest 0 a, p)
            | Some _ | None -> err "fault spec %S: probability must be in [0,1]" s)
      in
      match rest with
      | "raise" -> Ok { site; mode = Raise; prob; seed }
      | "nan" -> Ok { site; mode = Corrupt; prob; seed }
      | _ when String.length rest > 6 && String.sub rest 0 6 = "delay:" -> (
          let v = String.sub rest 6 (String.length rest - 6) in
          match int_of_string_opt v with
          | Some ms when ms >= 0 -> Ok { site; mode = Delay ms; prob; seed }
          | Some _ | None -> err "fault spec %S: bad delay %S" s v)
      | m -> err "fault spec %S: unknown mode %S (raise|nan|delay:MS)" s m)

let parse str =
  let parts =
    String.split_on_char ',' str
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: tl -> (
        match parse_one p with Ok sp -> go (sp :: acc) tl | Error _ as e -> e)
  in
  go [] parts

let clear () =
  Atomic.set enabled false;
  Hashtbl.reset slots

let set specs =
  clear ();
  List.iter
    (fun spec ->
      Hashtbl.replace slots spec.site
        {
          spec;
          rng = Eda_util.Rng.create spec.seed;
          mu = Mutex.create ();
          injected =
            (* Registered here (fault runs only): clean runs keep a
               byte-identical metrics export. *)
            Eda_obs.Metrics.counter
              ~labels:[ ("site", spec.site) ]
              "guard.injected";
        })
    specs;
  Atomic.set enabled (Hashtbl.length slots > 0)

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" ->
      clear ();
      Ok ()
  | Some str -> (
      match parse str with
      | Ok specs ->
          set specs;
          Ok ()
      | Error _ as e -> e)

let active () = Atomic.get enabled

let sites () =
  Hashtbl.fold (fun site _ acc -> site :: acc) slots []
  |> List.sort String.compare

(* Each site draws from its own seeded stream under a mutex, so a
   sequential (jobs=1) run injects at a reproducible event sequence. *)
let fire slot =
  Mutex.protect slot.mu (fun () ->
      slot.spec.prob >= 1.0 || Eda_util.Rng.float slot.rng 1.0 < slot.spec.prob)

let point site =
  if Atomic.get enabled then
    match Hashtbl.find_opt slots site with
    | None -> ()
    | Some slot -> (
        match slot.spec.mode with
        | Corrupt -> () (* corruption happens at [corrupt] call sites *)
        | Raise ->
            if fire slot then begin
              Eda_obs.Metrics.incr slot.injected;
              Error.raise_ (Error.Worker_crash { site; msg = "injected fault" })
            end
        | Delay ms ->
            if fire slot then begin
              Eda_obs.Metrics.incr slot.injected;
              Unix.sleepf (float_of_int ms /. 1000.0)
            end)

let corrupt site v =
  if not (Atomic.get enabled) then v
  else
    match Hashtbl.find_opt slots site with
    | Some slot -> (
        match slot.spec.mode with
        | Corrupt ->
            if fire slot then begin
              Eda_obs.Metrics.incr slot.injected;
              Float.nan
            end
            else v
        | Raise | Delay _ -> v)
    | None -> v
