module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Intern = Spamlab_spambayes.Intern
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Options = Spamlab_spambayes.Options
module Attack = Spamlab_core.Dictionary_attack
module Dynamic_threshold = Spamlab_core.Dynamic_threshold

type point = {
  fraction : float;
  ham_as_spam : float;
  ham_misclassified : float;
  spam_as_unsure : float;
  theta0 : float;
  theta1 : float;
}

type series = { defense : string; points : point list }

type cell = {
  mutable confusion : Confusion.t;
  mutable theta0_sum : float;
  mutable theta1_sum : float;
  mutable folds : int;
}

(* Derive dynamic thresholds for one poisoned fold: train on half the
   clean examples plus half the attack copies, score the other half
   (the attack email scored once, weighted). *)
let derive_thresholds quantile ~train ~payload ~count rng =
  Spamlab_obs.Obs.span "threshold.derive" @@ fun () ->
  let half_a, half_b = Dataset.split rng 0.5 train in
  let filter = Filter.create () in
  Dataset.train_filter filter half_a;
  Token_db.train_many_ids (Filter.db filter) Label.Spam payload (count / 2);
  let base_scores =
    Array.map
      (fun (e : Dataset.example) ->
        ((Dataset.classify filter e).Classify.indicator, e.label, 1))
      half_b
  in
  let attack_weight = count - (count / 2) in
  let scores =
    if attack_weight = 0 then base_scores
    else
      let attack_score =
        (Filter.classify_ids filter payload).Classify.indicator
      in
      Array.append base_scores
        [| (attack_score, Label.Spam, attack_weight) |]
  in
  Dynamic_threshold.thresholds_of_scores
    ~config:{ Dynamic_threshold.quantile } scores

let run lab (params : Params.threshold) =
  let tokenizer = Lab.tokenizer lab in
  let examples =
    Lab.corpus lab ~name:"threshold-defense" ~size:params.train_size
      ~spam_fraction:params.spam_prevalence
  in
  let attack =
    Attack.make ~name:"usenet"
      ~words:
        (Lab.usenet_top lab
           ~size:(Params.dictionary ~scale:(Lab.scale lab) ()).Params.usenet_size)
  in
  let payload = Attack.payload tokenizer attack in
  let folds = Dataset.kfold ~k:params.folds examples in
  (* Corpus and payload are fully interned; freeze before the fan-out
     so in-task id lookups are lock-free. *)
  Intern.freeze ();
  let defenses =
    "no defense"
    :: List.map (fun q -> Printf.sprintf "threshold-.%02d" (int_of_float (q *. 100.))) params.quantiles
  in
  (* Each fold runs as one pool task with its own named randomness
     stream (the training-set halving inside [derive_thresholds]), so
     results do not depend on which domain runs which fold.  A task
     returns, per fraction and defense, the confusion matrix and derived
     thresholds; folds are merged in index order after the join. *)
  let fold_results =
    Spamlab_parallel.Pool.map_array (Lab.pool lab)
      (fun (fold_index, (train, test)) ->
        Spamlab_obs.Obs.span "threshold.fold" @@ fun () ->
        let rng =
          Lab.rng lab (Printf.sprintf "threshold-defense/fold-%d" fold_index)
        in
        let base = Poison.base_filter tokenizer train in
        let counts =
          List.map
            (fun fraction ->
              Poison.attack_count ~train_size:(Array.length train) ~fraction)
            params.attack_fractions
        in
        let scores_by_fraction = Poison.sweep base ~payload ~counts test in
        List.map2
          (fun count scores ->
            let no_defense =
              ( Poison.confusion_of_scores Options.default scores,
                Options.default.Options.ham_cutoff,
                Options.default.Options.spam_cutoff )
            in
            let dynamic =
              List.map
                (fun quantile ->
                  let theta0, theta1 =
                    derive_thresholds quantile ~train ~payload ~count rng
                  in
                  let options =
                    Options.with_cutoffs Options.default ~ham:theta0
                      ~spam:theta1
                  in
                  ( Poison.confusion_of_scores options scores,
                    theta0, theta1 ))
                params.quantiles
            in
            no_defense :: dynamic)
          counts scores_by_fraction)
      (Array.mapi (fun i fold -> (i, fold)) folds)
  in
  let cells = Hashtbl.create 32 in
  let cell defense fraction =
    match Hashtbl.find_opt cells (defense, fraction) with
    | Some c -> c
    | None ->
        let c =
          { confusion = Confusion.create (); theta0_sum = 0.0;
            theta1_sum = 0.0; folds = 0 }
        in
        Hashtbl.replace cells (defense, fraction) c;
        c
  in
  Array.iter
    (fun per_fraction ->
      List.iter2
        (fun fraction per_defense ->
          List.iter2
            (fun defense (confusion, theta0, theta1) ->
              let c = cell defense fraction in
              c.confusion <- Confusion.merge c.confusion confusion;
              c.theta0_sum <- c.theta0_sum +. theta0;
              c.theta1_sum <- c.theta1_sum +. theta1;
              c.folds <- c.folds + 1)
            defenses per_defense)
        params.attack_fractions per_fraction)
    fold_results;
  List.map
    (fun defense ->
      let points =
        List.map
          (fun fraction ->
            let c = cell defense fraction in
            let n = float_of_int (max 1 c.folds) in
            {
              fraction;
              ham_as_spam = 100.0 *. Confusion.ham_as_spam_rate c.confusion;
              ham_misclassified =
                100.0 *. Confusion.ham_misclassified_rate c.confusion;
              spam_as_unsure =
                100.0 *. Confusion.spam_as_unsure_rate c.confusion;
              theta0 = c.theta0_sum /. n;
              theta1 = c.theta1_sum /. n;
            })
          params.attack_fractions
      in
      { defense; points })
    defenses

let render series =
  let rows =
    List.concat_map
      (fun { defense; points } ->
        List.map
          (fun p ->
            [
              defense;
              Printf.sprintf "%.1f" (100.0 *. p.fraction);
              Table.f2 p.ham_as_spam;
              Table.f2 p.ham_misclassified;
              Table.f2 p.spam_as_unsure;
              Printf.sprintf "%.3f" p.theta0;
              Printf.sprintf "%.3f" p.theta1;
            ])
          points)
      series
  in
  let table =
    Table.render
      ~header:
        [
          "defense"; "attack %"; "ham->spam %"; "ham->spam|unsure %";
          "spam->unsure %"; "theta0"; "theta1";
        ]
      ~rows
  in
  let chart =
    Plot.line_chart ~y_max:100.0 ~x_label:"percent control of training set"
      ~y_label:"percent of test ham misclassified (spam or unsure)"
      (List.map
         (fun { defense; points } ->
           ( defense,
             List.map
               (fun p -> (100.0 *. p.fraction, p.ham_misclassified))
               points ))
         series)
  in
  "Figure 5: dynamic threshold defense vs. Usenet dictionary attack\n\n"
  ^ table ^ "\n" ^ chart
