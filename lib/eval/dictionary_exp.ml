module Dataset = Spamlab_corpus.Dataset
module Dictionary = Spamlab_corpus.Dictionary
module Intern = Spamlab_spambayes.Intern
module Options = Spamlab_spambayes.Options
module Attack = Spamlab_core.Dictionary_attack

type point = {
  fraction : float;
  attack_emails : int;
  ham_as_spam : float;
  ham_misclassified : float;
  ham_misclassified_sd : float;
      (* Std-dev across folds - the error bars the paper omits
         "since we observed that the variation on our tests was
         small" (Section 4.1); reported so the claim is checkable. *)
  spam_as_ham : float;
  spam_as_unsure : float;
}

type series = { variant : string; points : point list }

type result = {
  series : series list;
  aspell_usenet_overlap : int;
  aspell_words : int;
  usenet_words : int;
}

let variants lab (params : Params.dictionary) =
  [
    Attack.make ~name:"optimal" ~words:(Lab.optimal_words lab);
    Attack.make ~name:"usenet"
      ~words:(Lab.usenet_top lab ~size:params.usenet_size);
    Attack.make ~name:"aspell"
      ~words:(Lab.aspell lab ~size:params.dictionary_size);
  ]

let run lab (params : Params.dictionary) =
  let tokenizer = Lab.tokenizer lab in
  let examples =
    Lab.corpus lab ~name:"dictionary-attack" ~size:params.train_size
      ~spam_fraction:params.spam_prevalence
  in
  let folds = Dataset.kfold ~k:params.folds examples in
  let attacks = variants lab params in
  let payloads =
    List.map (fun attack -> (attack, Attack.payload tokenizer attack)) attacks
  in
  (* Corpus and payloads are fully interned by now; freezing makes the
     in-task id lookups lock-free. *)
  Intern.freeze ();
  (* Checkpoint wire encoding of one fold's confusion matrices:
     payloads joined by '|', fractions by ';', the six cells by ','. *)
  let encode per_payload =
    String.concat "|"
      (List.map
         (fun per_fraction ->
           String.concat ";"
             (List.map
                (fun c ->
                  String.concat ","
                    (List.map string_of_int
                       (Array.to_list (Confusion.cells c))))
                per_fraction))
         per_payload)
  in
  let decode _fold s =
    let ( let* ) = Option.bind in
    let map_opt f l =
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* y = f x in
          Some (y :: acc))
        l (Some [])
    in
    let confusion s =
      let* ints = map_opt int_of_string_opt (String.split_on_char ',' s) in
      Confusion.of_cells (Array.of_list ints)
    in
    let fraction_list s =
      let parts = String.split_on_char ';' s in
      if List.length parts <> List.length params.attack_fractions then None
      else map_opt confusion parts
    in
    let parts = String.split_on_char '|' s in
    if List.length parts <> List.length payloads then None
    else map_opt fraction_list parts
  in
  (* Folds are independent (no randomness is consumed past corpus
     generation), so they fan across the domain pool; each fold sweeps
     every (variant, fraction) incrementally and returns its confusion
     matrices, which are merged in fold order after the join.  Under a
     checkpoint, completed folds are restored instead of recomputed. *)
  let fold_results =
    Lab.checkpointed_map lab ~stage:"dictionary/fold" ~encode ~decode
      (fun (train, test) ->
        Spamlab_obs.Obs.span "dictionary.fold" @@ fun () ->
        let base = Poison.base_filter tokenizer train in
        let counts =
          List.map
            (fun fraction ->
              Poison.attack_count ~train_size:(Array.length train) ~fraction)
            params.attack_fractions
        in
        List.map
          (fun (_, payload) ->
            List.map
              (fun scores ->
                Poison.confusion_of_scores Options.default scores)
              (Poison.sweep base ~payload ~counts test))
          payloads)
      folds
  in
  (* Accumulate one confusion matrix per (variant, fraction), plus the
     per-fold ham-misclassification rates for dispersion reporting. *)
  let cells = Hashtbl.create 64 in
  let cell variant fraction =
    match Hashtbl.find_opt cells (variant, fraction) with
    | Some c -> c
    | None ->
        let c = (ref (Confusion.create ()), ref []) in
        Hashtbl.replace cells (variant, fraction) c;
        c
  in
  Array.iter
    (fun per_variant ->
      List.iter2
        (fun (attack, _) per_fraction ->
          List.iter2
            (fun fraction confusion ->
              let total, per_fold = cell (Attack.name attack) fraction in
              total := Confusion.merge !total confusion;
              per_fold :=
                Confusion.ham_misclassified_rate confusion :: !per_fold)
            params.attack_fractions per_fraction)
        payloads per_variant)
    fold_results;
  let series =
    List.map
      (fun (attack, _) ->
        let points =
          List.map
            (fun fraction ->
              let total, per_fold = cell (Attack.name attack) fraction in
              let confusion = !total in
              let dispersion =
                match !per_fold with
                | [] | [ _ ] -> 0.0
                | rates ->
                    100.0
                    *. Spamlab_stats.Summary.std_dev
                         (Array.of_list rates)
              in
              let train_size =
                Array.length examples
                - (Array.length examples / params.folds)
              in
              {
                fraction;
                attack_emails =
                  Poison.attack_count ~train_size ~fraction;
                ham_as_spam =
                  100.0 *. Confusion.ham_as_spam_rate confusion;
                ham_misclassified =
                  100.0 *. Confusion.ham_misclassified_rate confusion;
                ham_misclassified_sd = dispersion;
                spam_as_ham = 100.0 *. Confusion.spam_as_ham_rate confusion;
                spam_as_unsure =
                  100.0 *. Confusion.spam_as_unsure_rate confusion;
              })
            params.attack_fractions
        in
        { variant = Attack.name attack; points })
      payloads
  in
  let aspell = Lab.aspell lab ~size:params.dictionary_size in
  let usenet = Lab.usenet_top lab ~size:params.usenet_size in
  {
    series;
    aspell_usenet_overlap = Dictionary.overlap_count aspell usenet;
    aspell_words = Array.length aspell;
    usenet_words = Array.length usenet;
  }

let token_volume lab (params : Params.dictionary) ~fraction =
  let tokenizer = Lab.tokenizer lab in
  (* Same stream name as [run]: token-volume accounting describes the
     same world as Figure 1, and in a [bench all] run the corpus is a
     cache hit rather than a regeneration. *)
  let examples =
    Lab.corpus lab ~name:"dictionary-attack" ~size:params.train_size
      ~spam_fraction:params.spam_prevalence
  in
  let corpus_tokens = Dataset.total_raw_tokens examples in
  let count =
    Poison.attack_count ~train_size:params.train_size ~fraction
  in
  let rows =
    List.map
      (fun attack ->
        let per_email = Attack.raw_token_count tokenizer attack in
        let attack_tokens = per_email * count in
        [
          Attack.name attack;
          string_of_int (Attack.word_count attack);
          string_of_int count;
          string_of_int attack_tokens;
          Printf.sprintf "%.1fx"
            (float_of_int attack_tokens /. float_of_int corpus_tokens);
        ])
      (variants lab params)
  in
  Printf.sprintf
    "Token volume at %.1f%% message control (%d attack emails)\n\
     clean corpus: %d messages, %d token instances\n\n%s"
    (100.0 *. fraction) count params.train_size corpus_tokens
    (Table.render
       ~header:
         [ "variant"; "words"; "emails"; "attack tokens"; "vs corpus" ]
       ~rows)

let render result =
  let table =
    let rows =
      List.concat_map
        (fun { variant; points } ->
          List.map
            (fun p ->
              [
                variant;
                Printf.sprintf "%.1f" (100.0 *. p.fraction);
                string_of_int p.attack_emails;
                Table.f2 p.ham_as_spam;
                Printf.sprintf "%s +/-%s" (Table.f2 p.ham_misclassified)
                  (Table.f2 p.ham_misclassified_sd);
                Table.f2 p.spam_as_ham;
                Table.f2 p.spam_as_unsure;
              ])
            points)
        result.series
    in
    Table.render
      ~header:
        [
          "variant"; "attack %"; "emails"; "ham->spam %";
          "ham->spam|unsure %"; "spam->ham %"; "spam->unsure %";
        ]
      ~rows
  in
  let chart =
    Plot.line_chart ~y_max:100.0 ~x_label:"percent control of training set"
      ~y_label:"percent of test ham misclassified (spam or unsure)"
      (List.map
         (fun { variant; points } ->
           ( variant,
             List.map
               (fun p -> (100.0 *. p.fraction, p.ham_misclassified))
               points ))
         result.series)
  in
  Printf.sprintf
    "Figure 1: dictionary attacks vs. percent control\n\
     aspell %d words, usenet %d words, overlap %d words\n\n%s\n%s"
    result.aspell_words result.usenet_words result.aspell_usenet_overlap
    table chart
