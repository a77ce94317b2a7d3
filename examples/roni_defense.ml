(* The paper's Section 5.1 defense: before admitting an email into the
   training set, measure what training on it would do to a validation
   set.  Dictionary-attack emails are loud — one email shifts thousands
   of token scores — so they separate cleanly from ordinary spam.

     dune exec examples/roni_defense.exe *)

open Spamlab_eval
module Dataset = Spamlab_corpus.Dataset
module Generator = Spamlab_corpus.Generator
module Label = Spamlab_spambayes.Label
module Roni = Spamlab_core.Roni
module Attack = Spamlab_core.Dictionary_attack

let () =
  let lab = Lab.create ~seed:5 ~scale:0.2 () in
  let tokenizer = Lab.tokenizer lab in
  let rng = Lab.rng lab "example-roni" in

  (* The trusted pool RONI resamples train/validation splits from. *)
  let pool =
    Lab.corpus lab ~name:"example-roni/pool" ~size:400 ~spam_fraction:0.5
  in
  Printf.printf
    "RONI config: %d-message train, %d-message validation, %d trials, reject if impact > %.1f\n\n"
    Roni.default_config.Roni.train_size
    Roni.default_config.Roni.validation_size
    Roni.default_config.Roni.trials Roni.default_config.Roni.threshold;

  let assess label candidate =
    let a = Roni.assess rng ~pool ~candidate in
    Printf.printf "%-26s impact %6.2f ham-as-ham  -> %s\n" label
      a.Roni.mean_ham_impact
      (if a.Roni.rejected then "REJECTED (not trained)" else "admitted");
    a
  in

  (* A stream of incoming mail: ordinary spam plus attack emails. *)
  print_endline "screening the incoming training stream:";
  for i = 1 to 5 do
    let msg = Generator.spam (Lab.config lab) rng in
    ignore
      (assess
         (Printf.sprintf "ordinary spam #%d" i)
         (Dataset.of_message tokenizer Label.Spam msg).Dataset.ids)
  done;

  let attacks =
    [
      ("aspell dictionary email", Lab.aspell lab ~size:20_000);
      ("usenet dictionary email", Lab.usenet_top lab ~size:19_000);
      ("optimal attack email", Lab.optimal_words lab);
    ]
  in
  List.iter
    (fun (label, words) ->
      let payload = Attack.payload tokenizer (Attack.make ~name:label ~words) in
      ignore (assess label payload))
    attacks;

  print_endline
    "\nEvery dictionary-attack email is rejected; ordinary spam passes.\n\
     (A focused attack would slip through - its damage targets a future\n\
     email, invisible on today's validation set. That is the paper's\n\
     open problem.)"
