(* Files and child processes.  Everything the benchmark writes lives
   under one work directory inside the checkout, and every process it
   starts is stopped and reaped before it exits. *)

module Client = Spamlab_serve.Client
module Daemon = Spamlab_serve.Daemon
module Protocol = Spamlab_serve.Protocol

let now = Spamlab_io.monotonic_s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let copy_file ~src ~dst = write_file dst (Checks.read_file src)

(* Peak resident set of a live process, in MiB. *)
let peak_rss_mb pid =
  let status = Checks.read_file (Printf.sprintf "/proc/%d/status" pid) in
  let key = "VmHWM:" in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:key l)
      (String.split_on_char '\n' status)
  with
  | None -> failwith "VmHWM missing from /proc status"
  | Some l ->
      let kb =
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id
      in
      float_of_int kb /. 1024.0

let spawn ~prog ~args ~stdout_path ~stderr_path =
  let out = Unix.openfile stdout_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile stderr_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close err)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out
          err)
  in
  pid

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (EINTR, _, _) -> waitpid_noeintr flags pid

let exited pid = fst (waitpid_noeintr [ WNOHANG ] pid) = pid

(* SIGTERM, then wait; SIGKILL if it has not exited in [grace] s. *)
let stop ?(grace = 20.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (ESRCH, _, _) -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match waitpid_noeintr [ WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          snd (waitpid_noeintr [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, status -> status
  in
  wait ()

(* Children still to be stopped if the run fails half way. *)
let live = ref []

let stop_all () =
  List.iter (fun pid -> ignore (stop ~grace:5.0 pid)) !live;
  live := []

(* Launch [spamlab serve] and time it from spawn until it answers its
   first PING: db load, store open, pool spawn and intern freeze all
   happen before the daemon binds its socket. *)
let launch_daemon ~exe ~args ~sock ~log =
  let addr = Daemon.Unix_sock sock in
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = now () in
  let pid =
    spawn ~prog:exe ~args:(("serve" :: "--socket" :: sock :: args))
      ~stdout_path:log ~stderr_path:log
  in
  live := pid :: !live;
  let ping = { Protocol.verb = Ping; body = ""; user = None } in
  let rec poll () =
    if exited pid then begin
      live := List.filter (( <> ) pid) !live;
      failwith
        (Printf.sprintf "daemon exited during start-up (see %s): %s" log
           (String.trim (Checks.read_file log)))
    end
    else if now () -. t0 > 120.0 then failwith "daemon did not answer PING"
    else
      match Client.connect addr with
      | Error _ ->
          Unix.sleepf 0.0005;
          poll ()
      | Ok conn -> (
          let r = Client.request conn ping in
          Client.close conn;
          match r with
          | Ok (Protocol.Ok "pong\n") -> now () -. t0
          | _ -> failwith "daemon answered its first PING wrongly")
  in
  let setup_s = poll () in
  (pid, setup_s)

let stop_daemon pid =
  live := List.filter (( <> ) pid) !live;
  match stop pid with
  | WEXITED 0 -> ()
  | WEXITED n -> failwith (Printf.sprintf "daemon exited with code %d" n)
  | WSIGNALED n | WSTOPPED n ->
      failwith (Printf.sprintf "daemon ended by signal %d" n)
