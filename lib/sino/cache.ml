module Metrics = Eda_obs.Metrics
module Log = Eda_obs.Log

let m_hits = Metrics.counter "sino.cache_hits"
let m_misses = Metrics.counter "sino.cache_misses"
let m_stores = Metrics.counter "sino.cache_stores"
let m_evictions = Metrics.counter "sino.cache_evictions"
let m_bound_rejects = Metrics.counter "sino.cache_bound_rejects"

type effort = {
  instances : int;
  inserted : int;
  removed : int;
  swaps : int;
  repairs : int;
  retries : int;
}

type value = { slots : int array; effort : effort }

type node = {
  key : string;
  content : string;  (** [Instance.content] of the canonical instance *)
  warm : int array option;
  mutable value : value;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  mu : Mutex.t;
  capacity : int;
  tbl : (string, node list ref) Hashtbl.t;  (** collision bucket per key *)
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;
  mutable size : int;
}

let create ?(capacity = 16384) () =
  {
    mu = Mutex.create ();
    capacity = max 1 capacity;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    size = 0;
  }

let length t = Mutex.protect t.mu (fun () -> t.size)

(* ---------------- intrusive LRU list (under t.mu) ------------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let bucket_remove t n =
  match Hashtbl.find_opt t.tbl n.key with
  | None -> ()
  | Some b -> (
      b := List.filter (fun m -> m != n) !b;
      match !b with [] -> Hashtbl.remove t.tbl n.key | _ :: _ -> ())

let drop t n =
  unlink t n;
  bucket_remove t n;
  t.size <- t.size - 1

let same_warm a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | Some _, None | None, Some _ -> false

let matches ~key ~content ~warm n =
  String.equal n.key key && same_warm n.warm warm && String.equal n.content content

let locate t ~key ~content ~warm =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some b -> List.find_opt (matches ~key ~content ~warm) !b

let num_shields slots =
  Array.fold_left (fun acc s -> if s < 0 then acc + 1 else acc) 0 slots

(* a node is still on the LRU list iff it has a predecessor or is the
   head ([Some n == t.head] would compare a fresh allocation) *)
let linked t n =
  n.prev <> None || (match t.head with Some h -> h == n | None -> false)

let find t ~params ~key ~inst ?warm ?(admit = fun _ -> true) () =
  let content = Instance.content inst in
  let candidate =
    Mutex.protect t.mu (fun () -> locate t ~key ~content ~warm)
  in
  match candidate with
  | None ->
      Metrics.incr m_misses;
      None
  | Some n when not (admit n.value) ->
      (* valid entry, but not reachable under this request (e.g. found
         beyond the requester's retry budget): miss, keep the entry *)
      Metrics.incr m_misses;
      None
  | Some n ->
      (* cross-check outside the lock: a clique bound every feasible
         layout must satisfy.  An entry beating it is provably not a
         solution of this instance (hash collision that slipped past the
         content check, or a corrupt store) — drop it and re-solve. *)
      let lb = Bound.shield_lower_bound ~params inst in
      if num_shields n.value.slots >= lb then begin
        Mutex.protect t.mu (fun () ->
            if linked t n then begin
              unlink t n;
              push_front t n
            end);
        Metrics.incr m_hits;
        Some n.value
      end
      else begin
        Mutex.protect t.mu (fun () -> if linked t n then drop t n);
        Log.warn
          ~fields:[ ("key", key) ]
          "panel cache entry beats the shield lower bound (%d < %d); dropped"
          (num_shields n.value.slots) lb;
        Metrics.incr m_bound_rejects;
        Metrics.incr m_misses;
        None
      end

(* [insert] is the raw mutation; [store] is the public entry that also
   counts.  [load] below re-inserts persisted entries through [insert]
   so sino.cache_stores only counts solves stored this process. *)
let insert t ~key ~inst ~warm value =
  let content = Instance.content inst in
  Mutex.protect t.mu (fun () ->
      match locate t ~key ~content ~warm with
      | Some n ->
          (* racing domains compute identical canonical solutions, so a
             refresh only promotes recency *)
          n.value <- value;
          unlink t n;
          push_front t n
      | None ->
          let n = { key; content; warm; value; prev = None; next = None } in
          push_front t n;
          (match Hashtbl.find_opt t.tbl key with
          | Some b -> b := n :: !b
          | None -> Hashtbl.add t.tbl key (ref [ n ]));
          t.size <- t.size + 1;
          while t.size > t.capacity do
            match t.tail with
            | None -> t.size <- t.capacity (* unreachable *)
            | Some last ->
                drop t last;
                Metrics.incr m_evictions
          done)

let store t ~key ~inst ?warm value =
  Metrics.incr m_stores;
  insert t ~key ~inst ~warm value

(* ---------------- on-disk store (gsino-panelcache-v1) --------------- *)

let magic = "gsino-panelcache-v1"
let file_of dir = Filename.concat dir "panels.v1"

exception Corrupt of string

let entry_lines n =
  let inst = Instance.of_content n.content in
  let sz = Instance.size inst in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  let kth =
    String.concat " "
      (List.init sz (fun i ->
           Printf.sprintf "%Lx" (Int64.bits_of_float (Instance.kth inst i))))
  in
  let sens =
    String.concat " "
      (List.init sz (fun i ->
           String.init sz (fun j -> if Instance.sens inst i j then '1' else '0')))
  in
  let e = n.value.effort in
  [
    "key " ^ n.key;
    Printf.sprintf "n %d" sz;
    String.trim ("kth " ^ kth);
    String.trim ("sens " ^ sens);
    String.trim ("slots " ^ ints n.value.slots);
  ]
  @ (match n.warm with Some w -> [ String.trim ("warm " ^ ints w) ] | None -> [])
  @ [
      Printf.sprintf "effort %d %d %d %d %d %d" e.instances e.inserted e.removed
        e.swaps e.repairs e.retries;
      "end";
    ]

(* Writers may race on one store directory: the serve daemon flushing at
   drain while a batch CLI sharing GSINO_PANEL_CACHE saves after refine.
   Each writer therefore stages into its own tmp file — pid plus an
   in-process sequence number, so two saves from one process (daemon
   drain racing a programmatic save) cannot collide either — and
   publishes with an atomic rename.  Rename is last-writer-wins at the
   whole-file level, so readers only ever observe some complete,
   well-formed store, never an interleaving; [load] of either version is
   valid (the stores are caches, not logs).  Counting is unaffected:
   [save] touches no metric and [load] re-inserts through [insert], so a
   concurrent save/load race cannot double-count sino.cache_stores. *)
let save_seq = Atomic.make 0

let save t dir =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let nodes =
    (* oldest first, so sequential re-insertion on load restores recency *)
    Mutex.protect t.mu (fun () ->
        let acc = ref [] in
        let cur = ref t.head in
        (while !cur <> None do
           match !cur with
           | Some n ->
               acc := n :: !acc;
               cur := n.next
           | None -> ()
         done);
        !acc)
  in
  let file = file_of dir in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ())
      (Atomic.fetch_and_add save_seq 1)
  in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (magic ^ "\n");
         List.iter
           (fun n ->
             List.iter (fun l -> output_string oc (l ^ "\n")) (entry_lines n))
           nodes);
     Sys.rename tmp file
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let split_fields line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let expect_tag tag line =
  match String.index_opt line ' ' with
  | _ when line = tag -> ""
  | Some i when String.sub line 0 i = tag ->
      String.sub line (i + 1) (String.length line - i - 1)
  | Some _ | None -> raise (Corrupt (Printf.sprintf "expected '%s' line" tag))

let parse_entry t lines =
  match lines with
  | [] -> []
  | key_line :: rest ->
      let key = expect_tag "key" key_line in
      let take tag rest =
        match rest with
        | l :: rest -> (expect_tag tag l, rest)
        | [] -> raise (Corrupt ("truncated entry: missing " ^ tag))
      in
      let n_str, rest = take "n" rest in
      let sz =
        match int_of_string_opt n_str with
        | Some v when v >= 0 -> v
        | Some _ | None -> raise (Corrupt "bad size")
      in
      let kth_str, rest = take "kth" rest in
      let kth_fields = Array.of_list (split_fields kth_str) in
      if Array.length kth_fields <> sz then raise (Corrupt "kth arity");
      let kth =
        Array.map
          (fun s ->
            match Int64.of_string_opt ("0x" ^ s) with
            | Some b -> Int64.float_of_bits b
            | None -> raise (Corrupt "bad kth bits"))
          kth_fields
      in
      let sens_str, rest = take "sens" rest in
      let rows = Array.of_list (split_fields sens_str) in
      if Array.length rows <> sz then raise (Corrupt "sens arity");
      Array.iter
        (fun r -> if String.length r <> sz then raise (Corrupt "sens row length"))
        rows;
      let ints s =
        Array.of_list
          (List.map
             (fun f ->
               match int_of_string_opt f with
               | Some v -> v
               | None -> raise (Corrupt "bad int field"))
             (split_fields s))
      in
      let slots_str, rest = take "slots" rest in
      let slots = ints slots_str in
      let warm, rest =
        match rest with
        | l :: more when l = "warm" || String.length l > 5 && String.sub l 0 5 = "warm "
          ->
            (Some (ints (expect_tag "warm" l)), more)
        | _ -> (None, rest)
      in
      let eff_str, rest = take "effort" rest in
      let effort =
        match Array.to_list (ints eff_str) with
        | [ instances; inserted; removed; swaps; repairs; retries ] ->
            { instances; inserted; removed; swaps; repairs; retries }
        | _ -> raise (Corrupt "effort arity")
      in
      let rest =
        match rest with
        | "end" :: rest -> rest
        | _ -> raise (Corrupt "missing end marker")
      in
      (* rebuild the canonical instance: ids are 0..n-1 by construction *)
      let inst =
        Instance.make
          ~nets:(Array.init sz (fun i -> i))
          ~kth
          ~sensitive:(fun i j -> rows.(i).[j] = '1')
      in
      (* a solution must place each local net exactly once *)
      let seen = Array.make sz false in
      Array.iter
        (fun s ->
          if s >= 0 then
            if s >= sz || seen.(s) then raise (Corrupt "bad slot permutation")
            else seen.(s) <- true)
        slots;
      if not (Array.for_all Fun.id seen) then raise (Corrupt "missing net in slots");
      insert t ~key ~inst ~warm { slots; effort };
      rest

let load dir =
  let t = create () in
  let file = file_of dir in
  if not (Sys.file_exists file) then t
  else begin
    let lines =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               acc := input_line ic :: !acc
             done
           with End_of_file -> ());
          List.rev !acc)
    in
    match lines with
    | first :: rest when first = magic -> (
        try
          let rec go = function [] -> () | ls -> go (parse_entry t ls) in
          go rest;
          t
        with Corrupt msg ->
          Log.warn
            ~fields:[ ("file", file) ]
            "corrupt panel cache store (%s); starting empty" msg;
          create ())
    | _ :: _ | [] ->
        Log.warn
          ~fields:[ ("file", file) ]
          "unrecognized panel cache store header; starting empty";
        create ()
  end
