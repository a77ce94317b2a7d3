(* Output checks: a run whose outputs differ from the in-process
   reference is not a result, whatever its speed. *)

module Classify = Spamlab_spambayes.Classify
module Label = Spamlab_spambayes.Label

(* The CLASSIFY payload for [results], in the daemon's wire format:
   one line per message of the batch, in order. *)
let render_verdicts (results : Classify.result option array) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> Buffer.add_string b (Printf.sprintf "%d malformed\n" i)
      | Some (r : Classify.result) ->
          Buffer.add_string b
            (Printf.sprintf "%d %s %.6f\n" i
               (Label.verdict_to_string r.verdict)
               r.indicator))
    results;
  Buffer.contents b

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* The line of [s] holding byte [i]. *)
let line_at s i =
  let i = min i (String.length s) in
  let start =
    match String.rindex_from_opt s (max 0 (i - 1)) '\n' with
    | Some j when j < i -> j + 1
    | _ -> 0
  in
  let stop =
    match String.index_from_opt s start '\n' with
    | Some j -> j
    | None -> String.length s
  in
  String.sub s start (stop - start)

let compare_text ~what ~expected ~got =
  if String.equal expected got then Ok ()
  else
    let i = first_diff expected got in
    Error
      (Printf.sprintf "%s differs at byte %d: expected %S, got %S" what i
         (line_at expected i) (line_at got i))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Regular files under [dir], as sorted paths relative to it. *)
let rec files_under ?(prefix = "") dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         let rel = if prefix = "" then name else Filename.concat prefix name in
         if Sys.is_directory path then files_under ~prefix:rel path else [ rel ])

let compare_files ~expected ~got =
  compare_text ~what:got ~expected:(read_file expected) ~got:(read_file got)

(* Byte equality of two directory trees: the same relative paths, each
   with the same bytes. *)
let compare_trees ~expected ~got =
  let a = files_under expected and b = files_under got in
  if a <> b then
    Error
      (Printf.sprintf "%s holds [%s], expected [%s]" got (String.concat " " b)
         (String.concat " " a))
  else
    List.fold_left
      (fun acc rel ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            compare_files ~expected:(Filename.concat expected rel)
              ~got:(Filename.concat got rel))
      (Ok ()) a
