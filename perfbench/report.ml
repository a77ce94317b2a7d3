(* What one benchmark run found: metrics, request accounting, output
   check failures, provenance, and the lines a reader sees. *)

type metric = { name : string; value : float; unit : string }

(* Requests of one verb, by outcome.  [err] and [busy] are protocol
   answers; [transport] is a request lost to a connection failure. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable err : int;
  mutable busy : int;
  mutable transport : int;
}

type t = {
  mutable metrics : metric list;
  mutable tallies : (string * tally) list;  (* per verb *)
  mutable check_errors : string list;
  mutable provenance : (string * string) list;
  mutable lines : string list;  (* human-readable, printed before the JSON *)
}

let create () =
  { metrics = []; tallies = []; check_errors = []; provenance = []; lines = [] }

let metric r name unit value =
  r.metrics <- r.metrics @ [ { name; value; unit } ]

let has r name = List.exists (fun m -> m.name = name) r.metrics

(* Metrics as "name unit value" lines, the exchange format between a
   layer child and the run that spawned it. *)
let metric_lines r =
  String.concat ""
    (List.map (fun m -> Printf.sprintf "%s %s %.17g\n" m.name m.unit m.value) r.metrics)

(* Add the metrics of [lines] that [r] does not hold yet. *)
let absorb_metric_lines r lines =
  List.iter
    (fun l ->
      if l <> "" then
        Scanf.sscanf l "%s %s %f" (fun name unit value ->
            if not (has r name) then metric r name unit value))
    (String.split_on_char '\n' lines)

let note r fmt = Printf.ksprintf (fun s -> r.lines <- r.lines @ [ s ]) fmt

let provenance r key value = r.provenance <- r.provenance @ [ (key, value) ]

let check r = function
  | Ok () -> ()
  | Error e -> r.check_errors <- r.check_errors @ [ e ]

let new_tally () = { attempted = 0; ok = 0; err = 0; busy = 0; transport = 0 }

let tally r verb =
  match List.assoc_opt verb r.tallies with
  | Some t -> t
  | None ->
      let t = new_tally () in
      r.tallies <- r.tallies @ [ (verb, t) ];
      t

(* Fold a worker's per-verb tallies into the run's. *)
let merge_tallies r tallies =
  List.iter
    (fun (verb, (t : tally)) ->
      let into = tally r verb in
      into.attempted <- into.attempted + t.attempted;
      into.ok <- into.ok + t.ok;
      into.err <- into.err + t.err;
      into.busy <- into.busy + t.busy;
      into.transport <- into.transport + t.transport)
    tallies

let attempted r = List.fold_left (fun acc (_, t) -> acc + t.attempted) 0 r.tallies

let failed r =
  List.fold_left (fun acc (_, t) -> acc + t.err + t.busy + t.transport) 0 r.tallies

(* Failed over attempted, across every verb. *)
let error_rate r =
  let a = attempted r in
  if a = 0 then 0.0 else float_of_int (failed r) /. float_of_int a

let json_string s = "\"" ^ Spamlab_obs.Json.escape_string s ^ "\""

(* Every digit the float carries: the driver rejects a time that reads
   the same on every run, which rounding would make likelier. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_human r ~workload =
  Printf.printf "== perfbench %s ==\n" workload;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.provenance;
  List.iter
    (fun (verb, t) ->
      Printf.printf
        "  requests %-19s attempted %d ok %d err %d busy %d transport %d\n" verb
        t.attempted t.ok t.err t.busy t.transport)
    r.tallies;
  Printf.printf "  error rate %g (ERR, BUSY and lost requests over attempted)\n"
    (error_rate r);
  List.iter print_endline r.lines;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit)
    r.metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.check_errors

let json r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.check_errors = [])
    (max 1 (attempted r))
    (failed r)
    (String.concat ", " metrics)

let provenance_json r =
  Printf.sprintf "{\"provenance\": {%s}}"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v))
          r.provenance))
