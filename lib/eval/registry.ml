type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  run : Lab.t -> string;
}

let table1 =
  {
    id = "table1";
    title = "Table 1: experimental parameters";
    paper_claim = "parameter grid as published";
    run = (fun lab -> Params.table1 ~scale:(Lab.scale lab) ());
  }

let fig1 =
  {
    id = "fig1";
    title = "Figure 1: dictionary attacks vs. percent control";
    paper_claim =
      "optimal >= usenet >= aspell everywhere; all three render the \
       filter unusable near 1% control (usenet ~36% ham misclassified \
       at 1%)";
    run =
      (fun lab ->
        let params = Params.dictionary ~scale:(Lab.scale lab) () in
        Dictionary_exp.render (Dictionary_exp.run lab params));
  }

let tokens =
  {
    id = "tokens";
    title = "Section 4.2: attack token volume";
    paper_claim =
      "at 2% message control the usenet attack carries ~6.4x and the \
       aspell attack ~7x the corpus token mass";
    run =
      (fun lab ->
        let params = Params.dictionary ~scale:(Lab.scale lab) () in
        Dictionary_exp.token_volume lab params ~fraction:0.02);
  }

let fig2 =
  {
    id = "fig2";
    title = "Figure 2: focused attack vs. guess probability";
    paper_claim =
      "attack success grows with p; at p=0.3 the target's classification \
       changes ~60% of the time";
    run =
      (fun lab ->
        let params = Params.focused ~scale:(Lab.scale lab) () in
        Focused_exp.render_probability_sweep
          (Focused_exp.probability_sweep lab params));
  }

let fig3 =
  {
    id = "fig3";
    title = "Figure 3: focused attack vs. attack volume";
    paper_claim =
      "misclassification grows with attack count; ~32% as spam at 100 \
       attack emails in a 5,000-message inbox";
    run =
      (fun lab ->
        let params = Params.focused ~scale:(Lab.scale lab) () in
        Focused_exp.render_volume_sweep (Focused_exp.volume_sweep lab params));
  }

let fig4 =
  {
    id = "fig4";
    title = "Figure 4: focused attack effect on token scores";
    paper_claim =
      "tokens included in the attack shift strongly toward 1; excluded \
       tokens decrease slightly";
    run =
      (fun lab ->
        let params = Params.focused ~scale:(Lab.scale lab) () in
        Focused_exp.render_token_shifts (Focused_exp.token_shifts lab params));
  }

let roni =
  {
    id = "roni";
    title = "Section 5.1: RONI defense";
    paper_claim =
      "every dictionary-attack email is rejected, no non-attack spam is \
       (attack impact >= 6.8 ham-as-ham vs <= 4.4 for non-attack)";
    run =
      (fun lab ->
        let params = Params.roni ~scale:(Lab.scale lab) () in
        Roni_exp.render (Roni_exp.run lab params));
  }

let fig5 =
  {
    id = "fig5";
    title = "Figure 5: dynamic threshold defense";
    paper_claim =
      "dynamic thresholds keep ham-as-spam near zero under attack, at \
       the cost of pushing most spam into unsure";
    run =
      (fun lab ->
        let params = Params.threshold ~scale:(Lab.scale lab) () in
        Threshold_exp.render (Threshold_exp.run lab params));
  }

(* ------------------------------------------------------------------ *)
(* Ablations and extensions beyond the paper's evaluation              *)

let ablate_disc =
  {
    id = "ablate-disc";
    title = "Ablation: discriminator cap |delta(E)|";
    paper_claim =
      "extension - SpamBayes fixes 150; fewer discriminators weaken clean \
       accuracy, more do not restore attack resistance";
    run = (fun lab -> Ablation.render_rows
               ~title:"Discriminator cap vs vulnerability (1% usenet attack)"
               (Ablation.discriminator_sweep lab));
  }

let ablate_band =
  {
    id = "ablate-band";
    title = "Ablation: significance band (0.4, 0.6)";
    paper_claim =
      "extension - the minimum |f-0.5| strength gate; wider bands drop \
       weak evidence";
    run = (fun lab -> Ablation.render_rows
               ~title:"Significance band vs vulnerability (1% usenet attack)"
               (Ablation.band_sweep lab));
  }

let ablate_smooth =
  {
    id = "ablate-smooth";
    title = "Ablation: Robinson prior strength s";
    paper_claim =
      "extension - heavier smoothing slows per-token poisoning but blunts \
       legitimate evidence too";
    run = (fun lab -> Ablation.render_rows
               ~title:"Prior strength vs vulnerability (1% usenet attack)"
               (Ablation.smoothing_sweep lab));
  }

let ablate_coverage =
  {
    id = "ablate-coverage";
    title = "Ablation: attacker knowledge (Section 3.4 interpolation)";
    paper_claim =
      "extension - damage grows monotonically with the fraction of the \
       victim's vocabulary the attacker covers (dictionary -> optimal)";
    run = (fun lab -> Ablation.render_coverage (Ablation.coverage_sweep lab));
  }

let pseudospam =
  {
    id = "pseudospam";
    title = "Extension: ham-labeled pseudospam attack (Section 2.2)";
    paper_claim =
      "extension - the paper predicts ham-labeled attacks 'could enable \
       more powerful attacks that place spam in a user's inbox'";
    run = (fun lab -> Extension_exp.render_pseudospam (Extension_exp.pseudospam lab));
  }

let goodword =
  {
    id = "goodword";
    title = "Extension: exploratory good-word evasion baseline (Section 6)";
    paper_claim =
      "extension - the Lowd-Meek/Wittel-Wu attack family the paper \
       contrasts against: no training influence, per-message evasion only";
    run = (fun lab -> Extension_exp.render_good_word (Extension_exp.good_word lab));
  }

let roni_sweep =
  {
    id = "roni-sweep";
    title = "Extension: RONI parameter study (Section 5.1 future work)";
    paper_claim =
      "extension - detection stays near 100% across validation sizes; \
       lower thresholds trade false positives";
    run = (fun lab -> Extension_exp.render_roni_sweep (Extension_exp.roni_sweep lab));
  }

let timeline =
  {
    id = "timeline";
    title = "Extension: attack timeline under weekly retraining (Section 2.1)";
    paper_claim =
      "extension - an undefended weekly-retrain pipeline collapses after \
       the attack burst and stays collapsed; RONI screening keeps \
       delivery intact";
    run = (fun lab -> Timeline_exp.render (Timeline_exp.run lab));
  }

let tokenizers =
  {
    id = "tokenizers";
    title = "Extension: cross-filter transfer (Section 7)";
    paper_claim =
      "extension - the paper predicts the attacks apply to BogoFilter and \
       SpamAssassin's Bayes component, 'although their effect may vary'";
    run =
      (fun lab ->
        Extension_exp.render_tokenizer_comparison
          (Extension_exp.tokenizer_comparison lab));
  }

let budget =
  {
    id = "budget";
    title = "Extension: value of attacker information (Section 3.4)";
    paper_claim =
      "extension - 'the attacker's knowledge usually falls between these \
       extremes'; at equal budgets, better knowledge of the victim's \
       word distribution does strictly more damage";
    run =
      (fun lab ->
        Extension_exp.render_information_value
          (Extension_exp.information_value lab));
  }

let corpus_stats =
  {
    id = "corpus";
    title = "Corpus characterization (the TREC-2005 stand-in)";
    paper_claim =
      "substrate validation - heavy-tailed lengths, sub-linear vocabulary \
       growth, a long singleton tail, and partial ham/spam overlap: the \
       distributional facts the attacks exploit";
    run =
      (fun lab ->
        let size = max 500 (int_of_float (5_000.0 *. Lab.scale lab)) in
        Spamlab_corpus.Corpus_stats.render
          (Spamlab_corpus.Corpus_stats.measure
             (Lab.corpus lab ~name:"corpus-stats" ~size ~spam_fraction:0.5)));
  }

let stealth =
  {
    id = "stealth";
    title = "Extension: split attacks vs size screening (Sections 2.2, 4.2)";
    paper_claim =
      "extension - 'an attack with fewer tokens likely would be harder to        detect; the number of messages is a more visible feature':        splitting defeats size screens at unchanged damage, RONI does not        care";
    run =
      (fun lab -> Extension_exp.render_stealth (Extension_exp.stealth lab));
  }

(* Every experiment runs under an [exp/<id>] span so a trace or metrics
   dump attributes time to experiments without each module opting in. *)
let instrument e =
  let span_name = "exp/" ^ e.id in
  {
    e with
    run = (fun lab -> Spamlab_obs.Obs.span span_name (fun () -> e.run lab));
  }

let all =
  List.map instrument
    [
      table1; corpus_stats; fig1; tokens; fig2; fig3; fig4; roni; fig5;
      ablate_disc; ablate_band; ablate_smooth; ablate_coverage; pseudospam;
      goodword; roni_sweep; timeline; tokenizers; budget; stealth;
    ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all

let run_all lab = List.map (fun e -> (e.id, e.run lab)) all
