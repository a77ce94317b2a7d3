(* Load generation against a live daemon: one process, one domain per
   connection, every request timed and every answer accounted for. *)

module Protocol = Spamlab_serve.Protocol
module Client = Spamlab_serve.Client
module Daemon = Spamlab_serve.Daemon

(* One worker's observations, merged after the workers join. *)
type acc = {
  mutable tallies : (string * Report.tally) list;
  mutable samples : (string * float list) list;  (* seconds, newest first *)
  mutable counts : (string * int) list;
  mutable failures : string list;  (* first few, for the log *)
  mutable mismatches : string list;  (* output check failures *)
}

let acc () =
  { tallies = []; samples = []; counts = []; failures = []; mismatches = [] }

let tally a verb =
  match List.assoc_opt verb a.tallies with
  | Some t -> t
  | None ->
      let t = Report.new_tally () in
      a.tallies <- (verb, t) :: a.tallies;
      t

let sample a key v =
  let old = Option.value ~default:[] (List.assoc_opt key a.samples) in
  a.samples <- (key, v :: old) :: List.remove_assoc key a.samples

let count a key n =
  let old = Option.value ~default:0 (List.assoc_opt key a.counts) in
  a.counts <- (key, old + n) :: List.remove_assoc key a.counts

let keep_first l e = if List.length l < 5 then l @ [ e ] else l

let mismatch a e = a.mismatches <- keep_first a.mismatches e

let samples accs key =
  Array.of_list
    (List.concat_map
       (fun a -> Option.value ~default:[] (List.assoc_opt key a.samples))
       accs)

let total accs key =
  List.fold_left
    (fun acc a -> acc + Option.value ~default:0 (List.assoc_opt key a.counts))
    0 accs

(* One request on [conn], accounted under its verb: [`Ok payload],
   [`Refused] for ERR or BUSY, [`Lost] for a transport failure, after
   which the connection is dead. *)
let send a conn (req : Protocol.request) =
  let verb = Protocol.verb_name req.verb in
  let t = tally a verb in
  t.attempted <- t.attempted + 1;
  let fail kind msg =
    a.failures <- keep_first a.failures (Printf.sprintf "%s %s: %s" verb kind msg)
  in
  match Client.request conn req with
  | Ok (Protocol.Ok payload) ->
      t.ok <- t.ok + 1;
      `Ok payload
  | Ok (Protocol.Err e) ->
      t.err <- t.err + 1;
      fail "ERR" e;
      `Refused
  | Ok Protocol.Busy ->
      t.busy <- t.busy + 1;
      fail "BUSY" "";
      `Refused
  | Error e ->
      t.transport <- t.transport + 1;
      fail "transport" (Client.error_message e);
      `Lost

(* A connect that failed counts as a request lost in transport. *)
let lost_connect a verb e =
  let t = tally a verb in
  t.attempted <- t.attempted + 1;
  t.transport <- t.transport + 1;
  a.failures <-
    keep_first a.failures
      (Printf.sprintf "%s connect: %s" verb (Client.error_message e))

let run_domains workers =
  List.map Domain.join (List.map (fun w -> Domain.spawn w) workers)

(* Closed loop: each worker owns one persistent connection and sends
   its next request when the previous answer is in, until [stop].
   [step acc conn i] sends request [i] and returns [false] when the
   connection died.  A worker that loses its connection raises
   [abort] so the others stop too instead of waiting for a sample
   count that can no longer be reached. *)
let closed_loop ~addr ~stop ~abort steps =
  run_domains
    (List.map
       (fun step () ->
         let a = acc () in
         (match Client.connect addr with
         | Error e ->
             lost_connect a "CONNECT" e;
             Atomic.set abort true
         | Ok conn ->
             let rec loop i =
               if not (stop () || Atomic.get abort) then
                 if step a conn i then loop (i + 1) else Atomic.set abort true
             in
             loop 0;
             Client.close conn);
         a)
       steps)
