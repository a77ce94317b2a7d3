(* A deployed filter under attack, week by week (the paper's Section 2.1
   operational setting): the organization retrains weekly on what
   arrived; a spammer slips dictionary-attack emails into weeks 3-4.

     dune exec examples/weekly_pipeline.exe *)

open Spamlab_eval
module Dataset = Spamlab_corpus.Dataset
module Label = Spamlab_spambayes.Label
module Pipeline = Spamlab_core.Pipeline
module Attack = Spamlab_core.Dictionary_attack
module Roni = Spamlab_core.Roni

let () =
  let lab = Lab.create ~seed:31 ~scale:0.2 () in
  let rng = Lab.rng lab "example-pipeline" in
  let tokenizer = Lab.tokenizer lab in

  (* The filter starts from 400 trusted messages; each week brings 150
     more.  Weeks 3 and 4 carry 8 usenet dictionary-attack emails each. *)
  let initial_training =
    Lab.corpus lab ~name:"example-pipeline/initial" ~size:400
      ~spam_fraction:0.5
  in
  let payload =
    Attack.payload tokenizer
      (Attack.make ~name:"usenet" ~words:(Lab.usenet_top lab ~size:19_000))
  in
  let attack_example =
    { Dataset.label = Label.Spam; ids = payload;
      raw_token_count = Array.length payload }
  in
  let week i =
    let clean =
      Lab.corpus lab
        ~name:(Printf.sprintf "example-pipeline/week-%d" i)
        ~size:150 ~spam_fraction:0.5
    in
    if i = 3 || i = 4 then
      Array.append clean (Array.make 8 attack_example)
    else clean
  in
  let rounds = List.init 8 (fun i -> week (i + 1)) in

  let simulate name policy roni =
    let report =
      Pipeline.run
        { Pipeline.retrain_period = 1; policy; roni; initial_training }
        (Spamlab_stats.Rng.copy rng) ~rounds
    in
    Printf.printf "%-18s" name;
    List.iter
      (fun (r : Pipeline.round_report) ->
        Printf.printf " %5.1f"
          (100.0 *. Pipeline.ham_delivery_rate r.Pipeline.counts))
      report.Pipeline.rounds;
    Printf.printf "   (rejected %d)\n" report.Pipeline.total_rejected
  in

  print_endline
    "ham delivery rate (%) per week; attack arrives in weeks 3-4:\n";
  Printf.printf "%-18s" "";
  List.iter (fun w -> Printf.printf " week%d" w) (List.init 8 (fun i -> i + 1));
  print_newline ();
  simulate "train everything" Pipeline.Train_everything None;
  simulate "train on error" Pipeline.Train_on_error None;
  simulate "RONI screened" Pipeline.Train_everything (Some Roni.default_config);
  print_endline
    "\nTraining only on mistakes does not help: the attack emails score\n\
     'unsure' (their words are unknown), so a mistake-driven trainer\n\
     ingests them anyway - exactly the paper's Section 2.2 warning.\n\
     RONI screening keeps the pipeline healthy."
