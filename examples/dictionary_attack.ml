(* The paper's Section 3.2 scenario: a spammer who controls 1% of the
   victim's training messages poisons the filter with dictionary emails
   until legitimate mail stops being delivered and the victim gives up
   on the filter.

     dune exec examples/dictionary_attack.exe *)

open Spamlab_eval
module Options = Spamlab_spambayes.Options
module Attack = Spamlab_core.Dictionary_attack
module Confusion = Spamlab_eval.Confusion

let () =
  let lab = Lab.create ~seed:7 ~scale:0.2 () in
  let tokenizer = Lab.tokenizer lab in

  (* The victim's world: a 2,000-message inbox, half spam, plus a
     held-out week of mail to measure delivery on. *)
  let train =
    Lab.corpus lab ~name:"example-dictionary/train" ~size:2_000
      ~spam_fraction:0.5
  in
  let test =
    Lab.corpus lab ~name:"example-dictionary/test" ~size:400 ~spam_fraction:0.5
  in
  let base = Poison.base_filter tokenizer train in

  let report label filter =
    let confusion =
      Poison.confusion_of_scores Options.default
        (Poison.score_examples filter test)
    in
    Printf.printf "%-28s ham->spam %5.1f%%   ham->unsure %5.1f%%   spam caught %5.1f%%\n"
      label
      (100.0 *. Confusion.ham_as_spam_rate confusion)
      (100.0 *. Confusion.ham_as_unsure_rate confusion)
      (100.0
      *. (1.0 -. Confusion.spam_misclassified_rate confusion))
  in

  print_endline "victim's filter before the attack:";
  report "clean filter" base;

  (* The attacker sends dictionary emails; the victim's weekly retrain
     dutifully learns them as spam. *)
  let attack =
    Attack.make ~name:"usenet-dictionary"
      ~words:(Lab.usenet_top lab ~size:25_000)
  in
  Printf.printf "\nattack: %s (%d words per email, %s)\n"
    (Attack.name attack) (Attack.word_count attack)
    (Spamlab_core.Taxonomy.describe Attack.taxonomy);

  print_endline "\nafter retraining on poisoned inboxes:";
  List.iter
    (fun fraction ->
      let count =
        Poison.attack_count ~train_size:(Array.length train) ~fraction
      in
      let payload = Attack.payload tokenizer attack in
      let poisoned = Poison.poisoned base ~payload ~count in
      report
        (Printf.sprintf "%4.1f%% control (%d emails)" (100.0 *. fraction)
           count)
        poisoned)
    [ 0.001; 0.005; 0.01; 0.02; 0.05 ];

  print_endline
    "\nWith ~1% control the filter is useless: nearly all legitimate mail\n\
     lands in the unsure/spam folders and the victim must read it all anyway."
