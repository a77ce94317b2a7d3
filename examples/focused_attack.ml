(* The paper's Section 3.3 scenario: a malicious contractor wants the
   victim to never see a competitor's bid email.  The attacker knows
   roughly what the bid will say (the template, company names, jargon)
   and poisons the filter so the real bid is filtered on arrival.

     dune exec examples/focused_attack.exe *)

open Spamlab_eval
module Filter = Spamlab_spambayes.Filter
module Intern = Spamlab_spambayes.Intern
module Prob_cache = Spamlab_spambayes.Prob_cache
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Dataset = Spamlab_corpus.Dataset
module Generator = Spamlab_corpus.Generator
module Trec = Spamlab_corpus.Trec
module Message = Spamlab_email.Message
module Focused = Spamlab_core.Focused_attack

let () =
  let lab = Lab.create ~seed:99 ~scale:0.2 () in
  let tokenizer = Lab.tokenizer lab in
  let rng = Lab.rng lab "example-focused" in

  (* The victim's inbox and trained filter. *)
  let messages =
    Lab.corpus_messages lab ~name:"example-focused/inbox" ~size:1_000
      ~spam_fraction:0.5
  in
  let base =
    Poison.base_filter tokenizer (Dataset.of_labeled tokenizer messages)
  in
  let header_pool = Array.map Message.headers (Trec.spam_only messages) in

  (* The competitor's bid email the attacker wants suppressed. *)
  let target = Generator.ham (Lab.config lab) rng in
  let before = Filter.classify base target in
  Printf.printf "the bid email before the attack: %s (score %.3f)\n"
    (Label.verdict_to_string before.Classify.verdict)
    before.Classify.indicator;
  Printf.printf "the target contains %d guessable words\n\n"
    (List.length (Focused.target_words target));

  (* The attacker guesses target words with probability p and mails the
     victim 60 attack messages dressed in stolen spam headers. *)
  List.iter
    (fun p ->
      let filter = Filter.copy base in
      let plan = Focused.craft rng ~target ~p ~count:60 ~header_pool in
      Focused.train filter plan;
      let after = Filter.classify filter target in
      Printf.printf
        "p=%.1f: guessed %3d words, missed %3d -> bid classified %-6s (score %.3f)\n"
        p
        (List.length plan.Focused.guessed)
        (List.length plan.Focused.missed)
        (Label.verdict_to_string after.Classify.verdict)
        after.Classify.indicator)
    [ 0.1; 0.3; 0.5; 0.9 ];

  (* Show what happened to individual token scores (the Figure 4 view). *)
  let filter = Filter.copy base in
  let plan = Focused.craft rng ~target ~p:0.5 ~count:60 ~header_pool in
  Focused.train filter plan;
  print_endline "\ntoken-level view (p=0.5), largest score movements:";
  (* f(w) by string lookup: a word no table holds scores the prior. *)
  let score filter w =
    let options = Filter.options filter in
    match Intern.find w with
    | Some id -> Prob_cache.smoothed_id options (Filter.db filter) id
    | None -> options.Spamlab_spambayes.Options.unknown_word_prob
  in
  let shifts =
    List.map
      (fun w -> (w, score base w, score filter w))
      (Focused.target_words target)
  in
  let by_shift_desc (_, b1, a1) (_, b2, a2) =
    Float.compare (Float.abs (a2 -. b2)) (Float.abs (a1 -. b1))
  in
  List.iteri
    (fun i (w, before, after) ->
      if i < 6 then
        Printf.printf "  %-16s %.3f -> %.3f%s\n" w before after
          (if List.mem w plan.Focused.guessed then "  (in attack)" else ""))
    (List.sort by_shift_desc shifts);
  print_endline
    "\nGuessed tokens jump toward 1.0; unguessed tokens drift slightly down\n\
     (the attack grew the spam class) - exactly the paper's Figure 4."
