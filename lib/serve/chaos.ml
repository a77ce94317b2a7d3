(* Deterministic chaos soak: one daemon plus N load clients under a
   seed-derived randomized fault schedule, with planned crash-kills and
   restarts, followed by an invariant sweep.

   The experiment runs twice over disjoint scratch state:

   - BASELINE — a pristine daemon (no faults, no limits), the clients
     run sequentially and their stdout is captured;
   - CHAOS — a daemon with transient faults over every eligible site,
     overload limits armed, and per-epoch crash faults that kill it at
     a replay-safe site; the monitor restarts it with the next epoch's
     schedule while the same clients run concurrently.

   Invariants asserted at the end:

   - every chaos client exits 0 with stdout byte-identical to its
     baseline twin (replay + backoff fully masked the faults);
   - the published database verifies ({!Token_db.verify_string});
   - a fresh fault-free daemon opens the surviving db + tenant store,
     answers [HEALTH] with [state=READY] and completes a [PUBLISH];
   - the chaos daemon's verdict counters are internally consistent
     (best effort — the final boot may have served no classify).

   Every random choice is a pure function of [config.seed], so a
   failing run replays exactly.

   Which sites may carry a {e crash} clause is a correctness argument,
   not a preference: a kill is only replay-safe where the process dies
   {e before} any acked-but-unreplayable mutation.  [serve.accept] and
   [serve.read] fire before the request executes; [serve.publish] sits
   at the head of a publish, before the store commit or the shared
   journal's;
   [store.journal.append] fires before the op record is buffered (and
   uncommitted records live in memory only, so the unacked tail dies
   with the process).  [serve.write] is excluded — a crash there tears
   the response {e after} the mutation applied, and a replaying client
   would double-train.  The db.save sites and [db.journal.fold] are
   excluded for their post-commit ambiguity window: they fire after
   the publish has committed the tenant store, so a killed publish
   leaves tenant ops durable that no ack reported, and the client's
   replay reconciles them only through [user.msgs=] probes, which
   neither UNTRAIN nor several writers per tenant keep exact.

   Transient clauses likewise skip the sites whose mid-flight failure
   is not all-or-nothing on the shared filter ([intern.grow] can fail
   between messages of a shared TRAIN batch, which has no rollback), the
   db rewrite internals (a torn save or fold surfaces as a publish
   failure via [serve.publish] already) and the op journals' write and
   fsync (a publish commits the shards' journals one after another, so
   one failing there is not all-or-nothing across the store). *)

module Fault = Spamlab_fault
module Token_db = Spamlab_spambayes.Token_db

type config = {
  exe : string;
  dir : string;
  seed : int;
  clients : int;
  users : int;
  train_size : int;
  eval_size : int;
  batch : int;
  kills : int;
  fault_p : float;
  publish_fault_p : float;
  jobs : int;
  wall_budget_s : float;
}

let default ~exe ~dir ~seed =
  {
    exe;
    dir;
    seed;
    clients = 3;
    users = 2;
    train_size = 48;
    eval_size = 24;
    batch = 6;
    kills = 2;
    fault_p = 0.02;
    publish_fault_p = 0.2;
    jobs = 1;
    wall_budget_s = 120.0;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic schedule derivation (splitmix64, as everywhere else)  *)

let draw cfg salt =
  let z =
    Spamlab_stats.Rng.mix64
      (Int64.add
         (Int64.of_int cfg.seed)
         (Int64.mul (Int64.of_int (salt + 1)) 0x9e3779b97f4a7c15L))
  in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let draw_int cfg salt ~lo ~hi =
  lo + int_of_float (draw cfg salt *. float_of_int (hi - lo + 1))

(* Sites that may NOT carry a transient clause (see header). *)
let transient_excluded =
  [
    "checkpoint.record"; "db.journal.fold"; "db.save.rename"; "db.save.write";
    "intern.grow"; "journal.fsync"; "journal.write";
    "serve.publish" (* armed separately, at [publish_fault_p] *);
  ]

let transient_sites () =
  List.filter_map
    (fun (name, _) ->
      if List.mem name transient_excluded then None else Some name)
    Fault.known_sites

(* Replay-safe kill sites with plausible occurrence ranges (see
   header for why only these four). *)
let crash_sites =
  [
    ("serve.accept", 2, 40);
    ("serve.read", 10, 300);
    ("serve.publish", 1, 3);
    ("store.journal.append", 5, 100);
  ]

(* The fault spec a given daemon epoch starts with: transient clauses
   over every eligible site, a publish-failure clause (feeding the
   degraded-mode machinery), and — while planned kills remain — one
   crash clause at a replay-safe site.  The spec grammar rejects
   duplicate sites, so the crash site drops its transient clause. *)
let spec_for cfg ~epoch =
  let crash =
    if epoch < cfg.kills then
      let n = List.length crash_sites in
      let site, lo, hi =
        List.nth crash_sites (draw_int cfg ((2 * epoch) + 7001) ~lo:0 ~hi:(n - 1))
      in
      Some (site, draw_int cfg ((2 * epoch) + 7002) ~lo ~hi)
    else None
  in
  let crash_site = Option.map fst crash in
  let transient =
    if cfg.fault_p <= 0.0 then []
    else
      transient_sites ()
      |> List.filter (fun s -> Some s <> crash_site)
      |> List.map (fun s -> Printf.sprintf "%s:transient~%g" s cfg.fault_p)
  in
  let publish =
    if cfg.publish_fault_p <= 0.0 || crash_site = Some "serve.publish" then []
    else
      [ Printf.sprintf "serve.publish:transient~%g" cfg.publish_fault_p ]
  in
  let crash_clause =
    match crash with
    | None -> []
    | Some (site, occ) -> [ Printf.sprintf "%s:crash@%d" site occ ]
  in
  String.concat "," (transient @ publish @ crash_clause)

(* ------------------------------------------------------------------ *)
(* Subprocess plumbing                                                 *)

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

let read_file p =
  try In_channel.with_open_bin p In_channel.input_all with Sys_error _ -> ""

let has_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

(* Client stdout is the byte-compared artifact; stderr (timing detail,
   reconnect counts, logs) goes to its own file.  Daemon stderr is
   opened O_APPEND so every epoch of one run lands in one log. *)
let spawn argv ~out ~err =
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let fd_out = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile err [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid = Unix.create_process argv.(0) argv devnull fd_out fd_err in
  Unix.close devnull;
  Unix.close fd_out;
  Unix.close fd_err;
  pid

let ( let* ) = Result.bind

let run cfg =
  if cfg.users <= 0 then
    Error
      "chaos needs --users >= 1: concurrent clients must own disjoint \
       tenants for their verdict streams to be deterministic"
  else if cfg.clients <= 0 then Error "chaos needs --clients >= 1"
  else begin
    (try Unix.mkdir cfg.dir 0o755
     with Unix.Unix_error (EEXIST, _, _) -> ());
    let path name = Filename.concat cfg.dir name in
    (* Stale state from a previous run would desynchronize the two
       phases (they must start from identical — empty — filters). *)
    List.iter
      (fun tag ->
        rm_rf (path (tag ^ ".db"));
        rm_rf (path (tag ^ ".sock"));
        rm_rf (path (tag ^ ".store")))
      [ "base"; "chaos" ];
    rm_rf (path "verify.sock");
    let t0 = Spamlab_io.monotonic_s () in
    let deadline = t0 +. cfg.wall_budget_s in
    let report = Buffer.create 512 in
    (* Everything spawned, so an invariant failure cannot leak a live
       daemon into the caller's session. *)
    let tracked = ref [] in
    let spawn_tracked argv ~out ~err =
      let pid = spawn argv ~out ~err in
      tracked := pid :: !tracked;
      pid
    in
    let reap_stragglers () =
      List.iter
        (fun pid ->
          match Unix.waitpid [ WNOHANG ] pid with
          | 0, _ ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          | _ -> ()
          | exception Unix.Unix_error _ -> ())
        !tracked
    in
    let daemon_argv ~tag ~spec ~limits_on =
      let base =
        [
          cfg.exe; "serve"; "--seed";
          string_of_int (cfg.seed + 1);
          "--db"; path (tag ^ ".db");
          "--socket"; path (tag ^ ".sock");
          "--store-dir"; path (tag ^ ".store");
          "--jobs"; string_of_int cfg.jobs;
        ]
      in
      let lim =
        if limits_on then
          [
            "--timeout-read"; "2";
            "--timeout-idle"; "10";
            "--max-conns"; string_of_int (max 2 (cfg.clients - 1));
            "--max-inflight"; "1";
            "--degraded-after"; "2";
          ]
        else []
      in
      let fault = match spec with None -> [] | Some s -> [ "--fault-spec"; s ] in
      Array.of_list (base @ lim @ fault)
    in
    let client_argv ~tag i =
      Array.of_list
        [
          cfg.exe; "client"; "load";
          "--socket"; path (tag ^ ".sock");
          "--seed"; string_of_int (cfg.seed + 100 + i);
          "--clients"; "1";
          "--train-size"; string_of_int cfg.train_size;
          "--eval-size"; string_of_int cfg.eval_size;
          "--batch"; string_of_int cfg.batch;
          "--users"; string_of_int cfg.users;
          "--user-prefix"; Printf.sprintf "c%d-" i;
        ]
    in
    let client_out tag i = path (Printf.sprintf "%s-client-%d.out" tag i) in
    let client_err tag i = path (Printf.sprintf "%s-client-%d.err" tag i) in
    let addr tag = Daemon.Unix_sock (path (tag ^ ".sock")) in
    let oneshot tag verb =
      Client.roundtrip (addr tag) { Protocol.verb; body = ""; user = None }
    in
    let ping tag =
      match oneshot tag Protocol.Ping with Ok (Protocol.Ok _) -> true | _ -> false
    in
    (* Readiness: a completed PING round-trip, never a sleep — the same
       contract ci.sh's wait_ready helper uses.  [poll] lets the chaos
       phase restart a crash-killed daemon while we wait. *)
    let rec wait_ready ~tag ~poll =
      if Spamlab_io.monotonic_s () > deadline then
        Error
          (Printf.sprintf "chaos: wall budget exceeded waiting for %s daemon"
             tag)
      else
        let* () = poll () in
        if ping tag then Ok ()
        else begin
          Unix.sleepf 0.02;
          wait_ready ~tag ~poll
        end
    in
    let rec terminate ~what ~accept_crash pid =
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (ESRCH, _, _) -> ());
      if Spamlab_io.monotonic_s () > deadline then
        Error (Printf.sprintf "chaos: %s did not exit within the wall budget" what)
      else
        match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ ->
            Unix.sleepf 0.02;
            terminate ~what ~accept_crash pid
        | _, WEXITED 0 -> Ok ()
        | _, WEXITED 70 when accept_crash -> Ok ()
        | _, st ->
            Error (Printf.sprintf "chaos: %s exited badly: %s" what (status_str st))
    in
    (* ---------------- phase 1: baseline ---------------- *)
    let baseline () =
      let dpid =
        spawn_tracked
          (daemon_argv ~tag:"base" ~spec:None ~limits_on:false)
          ~out:(path "base-daemon.out") ~err:(path "base-daemon.err")
      in
      let poll () =
        match Unix.waitpid [ WNOHANG ] dpid with
        | 0, _ -> Ok ()
        | _, st ->
            Error
              (Printf.sprintf "chaos: baseline daemon died: %s (see %s)"
                 (status_str st) (path "base-daemon.err"))
      in
      let* () = wait_ready ~tag:"base" ~poll in
      let rec clients i =
        if i >= cfg.clients then Ok ()
        else begin
          let cpid =
            spawn_tracked (client_argv ~tag:"base" i)
              ~out:(client_out "base" i) ~err:(client_err "base" i)
          in
          let rec wait () =
            if Spamlab_io.monotonic_s () > deadline then
              Error "chaos: wall budget exceeded during the baseline run"
            else
              match Unix.waitpid [ WNOHANG ] cpid with
              | 0, _ ->
                  let* () = poll () in
                  Unix.sleepf 0.02;
                  wait ()
              | _, WEXITED 0 -> Ok ()
              | _, st ->
                  Error
                    (Printf.sprintf "chaos: baseline client %d failed: %s (see %s)"
                       i (status_str st) (client_err "base" i))
          in
          let* () = wait () in
          clients (i + 1)
        end
      in
      let* () = clients 0 in
      terminate ~what:"baseline daemon" ~accept_crash:false dpid
    in
    (* ---------------- phase 2: chaos ---------------- *)
    let kills_delivered = ref 0 in
    let epochs = ref 1 in
    let chaos () =
      let dpid =
        ref
          (spawn_tracked
             (daemon_argv ~tag:"chaos" ~spec:(Some (spec_for cfg ~epoch:0))
                ~limits_on:true)
             ~out:(path "chaos-daemon.out") ~err:(path "chaos-daemon.err"))
      in
      (* The monitor: an exit of 70 is a delivered crash fault — count
         it and restart with the next epoch's schedule; anything else
         is a harness failure. *)
      let poll () =
        match Unix.waitpid [ WNOHANG ] !dpid with
        | 0, _ -> Ok ()
        | _, WEXITED 70 ->
            incr kills_delivered;
            let e = !epochs in
            epochs := e + 1;
            dpid :=
              spawn_tracked
                (daemon_argv ~tag:"chaos" ~spec:(Some (spec_for cfg ~epoch:e))
                   ~limits_on:true)
                ~out:(path "chaos-daemon.out") ~err:(path "chaos-daemon.err");
            Ok ()
        | _, st ->
            Error
              (Printf.sprintf "chaos: daemon died unexpectedly: %s (see %s)"
                 (status_str st) (path "chaos-daemon.err"))
      in
      let* () = wait_ready ~tag:"chaos" ~poll in
      let cpids =
        List.init cfg.clients (fun i ->
            ( i,
              spawn_tracked (client_argv ~tag:"chaos" i)
                ~out:(client_out "chaos" i) ~err:(client_err "chaos" i) ))
      in
      let rec monitor remaining =
        if remaining = [] then Ok ()
        else if Spamlab_io.monotonic_s () > deadline then begin
          List.iter
            (fun (_, p) ->
              try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            remaining;
          Error
            (Printf.sprintf
               "chaos: wall budget (%.0fs) exceeded with %d clients running"
               cfg.wall_budget_s (List.length remaining))
        end
        else
          let* () = poll () in
          let rec reap acc = function
            | [] -> Ok (List.rev acc)
            | (i, p) :: rest -> (
                match Unix.waitpid [ WNOHANG ] p with
                | 0, _ -> reap ((i, p) :: acc) rest
                | _, WEXITED 0 -> reap acc rest
                | _, st ->
                    Error
                      (Printf.sprintf "chaos: client %d failed: %s (see %s)" i
                         (status_str st) (client_err "chaos" i)))
          in
          let* remaining = reap [] remaining in
          if remaining <> [] then Unix.sleepf 0.02;
          monitor remaining
      in
      let* () = monitor cpids in
      (* Counter consistency, best effort: the current boot may answer,
         or be dead/dying from a still-pending crash clause. *)
      let stats_note =
        let* () = poll () in
        match oneshot "chaos" Protocol.Stats with
        | Ok (Protocol.Ok payload) -> (
            let counter name =
              String.split_on_char '\n' payload
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ k; v ] when k = name -> int_of_string_opt v
                     | _ -> None)
            in
            match
              ( counter "classify.messages", counter "verdicts.ham",
                counter "verdicts.unsure", counter "verdicts.spam" )
            with
            | Some m, Some h, Some u, Some s ->
                if h + u + s = m then
                  Ok
                    (Printf.sprintf
                       "stats: classify.messages=%d == verdicts %d+%d+%d\n" m h
                       u s)
                else
                  Error
                    (Printf.sprintf
                       "chaos: verdict counters inconsistent: \
                        classify.messages=%d but verdicts %d+%d+%d"
                       m h u s)
            | _ -> Ok "stats: counters missing from final boot\n")
        | _ -> Ok "stats: unavailable (daemon between epochs)\n"
      in
      let* stats_note = stats_note in
      Buffer.add_string report stats_note;
      (* A crash clause may still be pending on this boot; dying at it
         during drain is a delivered kill, not a failure. *)
      let* () = poll () in
      terminate ~what:"chaos daemon" ~accept_crash:true !dpid
    in
    (* ---------------- phase 3: invariants ---------------- *)
    let verify () =
      (* A fresh fault-free daemon must load the surviving db + store,
         report READY and complete a publish: recovery is not just
         "the file parses" but "the service comes back". *)
      let vpid =
        spawn_tracked
          [|
            cfg.exe; "serve";
            "--seed"; "0";
            "--db"; path "chaos.db";
            "--socket"; path "verify.sock";
            "--store-dir"; path "chaos.store";
            "--jobs"; "1";
          |]
          ~out:(path "verify-daemon.out") ~err:(path "verify-daemon.err")
      in
      let poll () =
        match Unix.waitpid [ WNOHANG ] vpid with
        | 0, _ -> Ok ()
        | _, st ->
            Error
              (Printf.sprintf
                 "chaos: verification daemon could not start on the surviving \
                  state: %s (see %s)"
                 (status_str st) (path "verify-daemon.err"))
      in
      let* () = wait_ready ~tag:"verify" ~poll in
      let* () =
        match oneshot "verify" Protocol.Health with
        | Ok (Protocol.Ok payload) when has_substring ~needle:"state=READY" payload
          ->
            Ok ()
        | Ok (Protocol.Ok payload) ->
            Error ("chaos: verification daemon not READY: " ^ String.trim payload)
        | Ok (Protocol.Err e) -> Error ("chaos: verification HEALTH: " ^ e)
        | Ok Protocol.Busy -> Error "chaos: verification HEALTH answered BUSY"
        | Error e ->
            Error ("chaos: verification HEALTH: " ^ Client.error_message e)
      in
      let* () =
        match oneshot "verify" Protocol.Publish with
        | Ok (Protocol.Ok _) -> Ok ()
        | Ok (Protocol.Err e) -> Error ("chaos: verification PUBLISH: " ^ e)
        | Ok Protocol.Busy -> Error "chaos: verification PUBLISH answered BUSY"
        | Error e ->
            Error ("chaos: verification PUBLISH: " ^ Client.error_message e)
      in
      let* () = terminate ~what:"verification daemon" ~accept_crash:false vpid in
      let* () =
        match Token_db.verify_string (read_file (path "chaos.db")) with
        | Ok r ->
            Buffer.add_string report
              (Printf.sprintf "db: ok (%d entries, %d spam + %d ham)\n"
                 r.Token_db.entries r.Token_db.nspam r.Token_db.nham);
            Ok ()
        | Error e -> Error ("chaos: published db corrupt: " ^ e)
      in
      let rec compare i =
        if i >= cfg.clients then Ok ()
        else
          let b = read_file (client_out "base" i) in
          let c = read_file (client_out "chaos" i) in
          if b = "" then
            Error (Printf.sprintf "chaos: baseline client %d produced no output" i)
          else if b = c then begin
            Buffer.add_string report
              (Printf.sprintf "client %d: stdout identical (%d bytes)\n" i
                 (String.length b));
            compare (i + 1)
          end
          else
            Error
              (Printf.sprintf
                 "chaos: client %d stdout diverged from baseline (%s vs %s)" i
                 (client_out "base" i) (client_out "chaos" i))
      in
      compare 0
    in
    Buffer.add_string report
      (Printf.sprintf "chaos: seed=%d clients=%d users=%d kills=%d planned\n"
         cfg.seed cfg.clients cfg.users cfg.kills);
    let result =
      let* () = baseline () in
      let* () = chaos () in
      let* () = verify () in
      Buffer.add_string report
        (Printf.sprintf "kills delivered=%d epochs=%d wall_s=%.1f\n"
           !kills_delivered !epochs
           (Spamlab_io.monotonic_s () -. t0));
      Buffer.add_string report "chaos ok\n";
      Ok (Buffer.contents report)
    in
    reap_stragglers ();
    result
  end
