module Obs = Spamlab_obs.Obs

type kind = Transient | Fatal | Crash

exception Injected of { site : string; kind : kind; occurrence : int }

let () =
  Printexc.register_printer (function
    | Injected { site; kind; occurrence } ->
        let kind =
          match kind with
          | Transient -> "transient"
          | Fatal -> "fatal"
          | Crash -> "crash"
        in
        Some
          (Printf.sprintf "Spamlab_fault.Injected(%s:%s@%d)" site kind
             occurrence)
    | _ -> None)

let grammar = "site:kind@n[+n...] or site:kind~p, clauses comma-separated"

(* The authoritative site catalogue, sorted by name.  [check] accepts
   any string, but every site compiled into the tree must be declared
   here: `spamlab fault sites` renders this list (so the README table
   cannot drift from the code), the chaos orchestrator derives its
   randomized schedules from it, and a test asserts it stays in sync
   with the sites the suites exercise. *)
let known_sites =
  [
    ("checkpoint.record", "before a sweep checkpoint line is appended");
    ( "db.journal.fold",
      "between a db fold's rename and its journal reset (the journal is \
       stale)" );
    ("db.save.rename", "before the atomic rename of a token-db save");
    ( "db.save.write",
      "once per token-db save, with half the bytes in the temp file" );
    ("intern.grow", "before the intern table grows (fires pre-mutation)");
    ("journal.fsync", "before an op journal's commit fsyncs");
    ("journal.write", "before each write syscall of an op journal");
    ("pool.task", "at the head of every supervised pool task");
    ("score.cache.fill", "before a probability-cache slot is filled");
    ("serve.accept", "before a ready connection is accepted");
    ( "serve.deadline",
      "when an armed I/O deadline starts a wait (transient = simulated \
       timeout)" );
    ("serve.publish", "at the head of a snapshot publish, before any mutation");
    ("serve.read", "before every protocol read syscall");
    ("serve.write", "before every protocol write syscall");
    ("store.compact", "before a shard journal folds into its segment");
    ("store.evict", "before a cached tenant overlay is evicted");
    ("store.journal.append", "before an op record is buffered for a journal");
  ]

type selector = Occurrences of int list | Probability of float

type site_config = {
  kind : kind;
  selector : selector;
  count : int Atomic.t;  (** occurrences of [check] seen so far *)
}

(* The whole registry is swapped atomically so the disabled fast path in
   [check] is a single load.  Per-site occurrence counters live inside
   the table and survive for the lifetime of one configuration. *)
let sites : (string, site_config) Hashtbl.t option Atomic.t =
  Atomic.make None

let seed_ref = Atomic.make 0
let injected = Obs.counter "fault.injected"
let fatal = Obs.counter "fault.fatal"

(* Mixes (seed, site, occurrence) through the splitmix64 finalizer
   into a uniform word, so probability selectors are pure functions of
   their inputs — no hidden generator state, hence jobs- and
   order-invariant given a deterministic per-site occurrence
   numbering. *)
let draw ~seed ~site ~occurrence =
  let mix64 = Spamlab_stats.Rng.mix64 in
  let h = Int64.of_int (Hashtbl.hash site) in
  let z = Int64.of_int seed in
  let z = mix64 (Int64.add z (Int64.mul h 0x9e3779b97f4a7c15L)) in
  let z = mix64 (Int64.add z (Int64.of_int occurrence)) in
  (* 53 uniform bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let kind_of_string = function
  | "transient" -> Ok Transient
  | "fatal" -> Ok Fatal
  | "crash" -> Ok Crash
  | s -> Error (Printf.sprintf "unknown fault kind %S" s)

let parse_selector body =
  match String.index_opt body '@' with
  | Some i ->
      let kind_s = String.sub body 0 i in
      let occs = String.sub body (i + 1) (String.length body - i - 1) in
      let parts = String.split_on_char '+' occs in
      let rec occurrences acc = function
        | [] -> Ok (List.sort_uniq compare (List.rev acc))
        | p :: rest -> (
            match int_of_string_opt p with
            | Some n when n >= 1 -> occurrences (n :: acc) rest
            | _ ->
                Error
                  (Printf.sprintf "occurrence %S is not a positive integer" p))
      in
      Result.bind (occurrences [] parts) (fun occs ->
          Result.map (fun kind -> (kind, Occurrences occs))
            (kind_of_string kind_s))
  | None -> (
      match String.index_opt body '~' with
      | Some i -> (
          let kind_s = String.sub body 0 i in
          let p_s = String.sub body (i + 1) (String.length body - i - 1) in
          match float_of_string_opt p_s with
          | Some p when Float.is_finite p && p >= 0.0 && p <= 1.0 ->
              Result.map (fun kind -> (kind, Probability p))
                (kind_of_string kind_s)
          | _ ->
              Error
                (Printf.sprintf "probability %S is not a float in [0,1]" p_s))
      | None ->
          Error
            (Printf.sprintf "missing selector in %S (expected @n or ~p)" body))

let parse_clause clause =
  match String.index_opt clause ':' with
  | None -> Error (Printf.sprintf "missing ':' in clause %S" clause)
  | Some i ->
      let site = String.sub clause 0 i in
      let body = String.sub clause (i + 1) (String.length clause - i - 1) in
      if site = "" then Error (Printf.sprintf "empty site in clause %S" clause)
      else
        Result.map
          (fun (kind, selector) ->
            (site, { kind; selector; count = Atomic.make 0 }))
          (parse_selector body)

let parse spec =
  let clauses =
    List.filter
      (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  let table = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok table
    | clause :: rest -> (
        match parse_clause clause with
        | Error e -> Error e
        | Ok (site, config) ->
            if Hashtbl.mem table site then
              Error (Printf.sprintf "duplicate site %S" site)
            else (
              Hashtbl.replace table site config;
              go rest))
  in
  go clauses

let disable () = Atomic.set sites None

let configure ?(seed = 0) spec =
  match parse spec with
  | Error e -> Error (Printf.sprintf "fault spec: %s (grammar: %s)" e grammar)
  | Ok table ->
      Atomic.set seed_ref seed;
      if Hashtbl.length table = 0 then Atomic.set sites None
      else Atomic.set sites (Some table);
      Ok ()

let configure_env ?seed () =
  match Sys.getenv_opt "SPAMLAB_FAULTS" with
  | None | Some "" -> Ok ()
  | Some spec -> configure ?seed spec

let fire site kind occurrence =
  Obs.incr injected;
  match kind with
  | Crash ->
      Printf.eprintf "spamlab: injected crash at %s (occurrence %d)\n%!" site
        occurrence;
      exit 70
  | Fatal ->
      Obs.incr fatal;
      raise (Injected { site; kind; occurrence })
  | Transient -> raise (Injected { site; kind; occurrence })

let check site =
  match Atomic.get sites with
  | None -> ()
  | Some table -> (
      match Hashtbl.find_opt table site with
      | None -> ()
      | Some { kind; selector; count } -> (
          let occurrence = 1 + Atomic.fetch_and_add count 1 in
          match selector with
          | Occurrences occs ->
              if List.mem occurrence occs then fire site kind occurrence
          | Probability p ->
              if draw ~seed:(Atomic.get seed_ref) ~site ~occurrence < p then
                fire site kind occurrence))

let is_transient = function
  | Injected { kind = Transient; _ } -> true
  | _ -> false
