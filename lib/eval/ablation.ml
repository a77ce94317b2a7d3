open Spamlab_stats
module Options = Spamlab_spambayes.Options
module Attack = Spamlab_core.Dictionary_attack

type row = {
  setting : string;
  clean_ham_misclassified : float;
  clean_spam_misclassified : float;
  attacked_ham_as_spam : float;
  attacked_ham_misclassified : float;
}

(* Shared environment: one corpus, one base filter, one poisoned filter
   (the scoring indicator depends only on the token DB, so option sweeps
   can rescore the same filters under different options — except the
   discriminator options, which affect scoring itself and force a
   rescore rather than a retrain). *)
type env = {
  base : Spamlab_spambayes.Filter.t;
  poisoned : Spamlab_spambayes.Filter.t;
  test : Spamlab_corpus.Dataset.example array;
}

let make_env lab =
  let size = max 400 (int_of_float (2_000.0 *. Lab.scale lab)) in
  let train = Lab.corpus lab ~name:"ablation/train" ~size ~spam_fraction:0.5 in
  let test =
    Lab.corpus lab ~name:"ablation/test" ~size:(size / 5) ~spam_fraction:0.5
  in
  let base = Poison.base_filter (Lab.tokenizer lab) train in
  let payload =
    let words = Lab.usenet_top lab ~size:(max 19_000 (Array.length train * 9)) in
    Attack.payload (Lab.tokenizer lab) (Attack.make ~name:"usenet" ~words)
  in
  let count = Poison.attack_count ~train_size:size ~fraction:0.01 in
  let poisoned = Poison.poisoned base ~payload ~count in
  { base; poisoned; test }

let measure env options =
  let module Filter = Spamlab_spambayes.Filter in
  let module Classify = Spamlab_spambayes.Classify in
  let score filter =
    let engine = Classify.engine options (Filter.db filter) in
    Poison.confusion_of_scores options
      (Array.map
         (fun (e : Spamlab_corpus.Dataset.example) ->
           ( (Classify.score_engine engine e.Spamlab_corpus.Dataset.ids)
               .Classify.indicator,
             e.Spamlab_corpus.Dataset.label ))
         env.test)
  in
  let clean = score env.base in
  let attacked = score env.poisoned in
  ( 100.0 *. Confusion.ham_misclassified_rate clean,
    100.0 *. Confusion.spam_misclassified_rate clean,
    100.0 *. Confusion.ham_as_spam_rate attacked,
    100.0 *. Confusion.ham_misclassified_rate attacked )

let sweep env settings =
  List.map
    (fun (setting, options) ->
      let chm, csm, ahs, ahm = measure env options in
      {
        setting;
        clean_ham_misclassified = chm;
        clean_spam_misclassified = csm;
        attacked_ham_as_spam = ahs;
        attacked_ham_misclassified = ahm;
      })
    settings

let discriminator_sweep lab =
  let env = make_env lab in
  sweep env
    (List.map
       (fun n ->
         ( Printf.sprintf "max_discriminators=%d" n,
           { Options.default with Options.max_discriminators = n } ))
       [ 10; 50; 150; 300 ])

let band_sweep lab =
  let env = make_env lab in
  sweep env
    (List.map
       (fun b ->
         ( Printf.sprintf "min_strength=%.2f" b,
           { Options.default with Options.minimum_prob_strength = b } ))
       [ 0.0; 0.05; 0.1; 0.2 ])

(* Prior strength changes f(w), i.e. scoring, not training — the same
   rescoring trick applies. *)
let smoothing_sweep lab =
  let env = make_env lab in
  sweep env
    (List.map
       (fun s ->
         ( Printf.sprintf "s=%.3f" s,
           { Options.default with Options.unknown_word_strength = s } ))
       [ 0.045; 0.45; 4.5; 45.0 ])

let coverage_sweep lab =
  let rng = Lab.rng lab "ablation-coverage" in
  let size = max 400 (int_of_float (2_000.0 *. Lab.scale lab)) in
  let train =
    Lab.corpus lab ~name:"ablation-coverage/train" ~size ~spam_fraction:0.5
  in
  let test =
    Lab.corpus lab ~name:"ablation-coverage/test" ~size:(size / 5)
      ~spam_fraction:0.5
  in
  let base = Poison.base_filter (Lab.tokenizer lab) train in
  let optimal = Lab.optimal_words lab in
  let total = Array.length optimal in
  let count = Poison.attack_count ~train_size:size ~fraction:0.01 in
  List.map
    (fun coverage ->
      let known = int_of_float (coverage *. float_of_int total) in
      let words =
        if known = 0 then Spamlab_corpus.Wordgen.words 50_000_000 total
        else
          Array.append
            (Rng.sample_without_replacement rng known optimal)
            (* Pad with filler so every attacker sends the same volume. *)
            (Spamlab_corpus.Wordgen.words 50_000_000 (total - known))
      in
      let payload =
        Attack.payload (Lab.tokenizer lab) (Attack.make ~name:"coverage" ~words)
      in
      let poisoned = Poison.poisoned base ~payload ~count in
      let confusion =
        Poison.confusion_of_scores Options.default
          (Poison.score_examples poisoned test)
      in
      ( coverage,
        100.0 *. Confusion.ham_as_spam_rate confusion,
        100.0 *. Confusion.ham_misclassified_rate confusion ))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let render_rows ~title rows =
  title ^ "\n\n"
  ^ Table.render
      ~header:
        [
          "setting"; "clean ham miscls %"; "clean spam miscls %";
          "attacked ham->spam %"; "attacked ham miscls %";
        ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.setting;
               Table.f2 r.clean_ham_misclassified;
               Table.f2 r.clean_spam_misclassified;
               Table.f2 r.attacked_ham_as_spam;
               Table.f2 r.attacked_ham_misclassified;
             ])
           rows)

let render_coverage rows =
  "Constrained attacker (Section 3.4): ham-vocabulary coverage vs damage\n\
   at 1% training-set control (attack volume held constant)\n\n"
  ^ Table.render
      ~header:[ "coverage"; "ham->spam %"; "ham->spam|unsure %" ]
      ~rows:
        (List.map
           (fun (c, s, m) ->
             [ Printf.sprintf "%.2f" c; Table.f2 s; Table.f2 m ])
           rows)
  ^ "\n"
  ^ Plot.line_chart ~y_max:100.0 ~x_label:"fraction of ham vocabulary known"
      ~y_label:"percent of test ham misclassified"
      [ ("ham as spam or unsure", List.map (fun (c, _, m) -> (c, m)) rows);
        ("ham as spam", List.map (fun (c, s, _) -> (c, s)) rows) ]
