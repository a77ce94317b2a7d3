(* Quickstart: generate a small synthetic inbox, train a SpamBayes
   filter on it, and classify fresh messages.

     dune exec examples/quickstart.exe *)

open Spamlab_stats
module Generator = Spamlab_corpus.Generator
module Trec = Spamlab_corpus.Trec
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify

let () =
  (* Everything in spamlab is deterministic in a seed. *)
  let config = Generator.default_config ~seed:2026 () in
  let rng = Rng.create 2026 in

  (* 1. A labeled training inbox: 1,000 messages, half spam. *)
  let inbox = Trec.generate config rng ~size:1_000 ~spam_fraction:0.5 in
  Printf.printf "training on %d messages " (Array.length inbox);
  let ham, spam = Trec.counts inbox in
  Printf.printf "(%d ham, %d spam)\n" ham spam;

  (* 2. Train the filter. *)
  let filter = Filter.create () in
  Array.iter (fun (label, msg) -> Filter.train filter label msg) inbox;

  (* 3. Classify held-out messages. *)
  let show kind msg =
    let result = Filter.classify filter msg in
    Printf.printf "%-10s -> %-6s (score %.3f, %d clues)\n" kind
      (Label.verdict_to_string result.Classify.verdict)
      result.Classify.indicator
      (List.length result.Classify.clues)
  in
  print_endline "\nclassifying fresh messages:";
  for _ = 1 to 3 do
    show "fresh ham" (Generator.ham config rng);
    show "fresh spam" (Generator.spam config rng)
  done;

  (* 4. Peek at the strongest evidence for one message. *)
  let probe = Generator.spam config rng in
  let result = Filter.classify filter probe in
  print_endline "\nstrongest clues for one spam message:";
  List.iteri
    (fun i clue ->
      if i < 5 then
        Printf.printf "  %-20s f(w) = %.3f\n" clue.Classify.token
          clue.Classify.score)
    result.Classify.clues;

  (* 5. Persist and reload the trained state. *)
  let path = Filename.temp_file "quickstart" ".db" in
  Filter.save_file filter path;
  (match Filter.load_file path with
  | Ok loaded ->
      Printf.printf "\nfilter saved and reloaded: %d distinct tokens\n"
        (Spamlab_spambayes.Token_db.distinct_tokens (Filter.db loaded))
  | Error e -> Printf.printf "reload failed: %s\n" e);
  Sys.remove path
