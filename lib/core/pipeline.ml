module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify

type verdict_counts = {
  ham_as_ham : int;
  ham_as_unsure : int;
  ham_as_spam : int;
  spam_as_ham : int;
  spam_as_unsure : int;
  spam_as_spam : int;
}

let empty_counts =
  {
    ham_as_ham = 0;
    ham_as_unsure = 0;
    ham_as_spam = 0;
    spam_as_ham = 0;
    spam_as_unsure = 0;
    spam_as_spam = 0;
  }

let count_verdict counts gold verdict =
  match (gold, verdict) with
  | Label.Ham, Label.Ham_v -> { counts with ham_as_ham = counts.ham_as_ham + 1 }
  | Label.Ham, Label.Unsure_v ->
      { counts with ham_as_unsure = counts.ham_as_unsure + 1 }
  | Label.Ham, Label.Spam_v -> { counts with ham_as_spam = counts.ham_as_spam + 1 }
  | Label.Spam, Label.Ham_v -> { counts with spam_as_ham = counts.spam_as_ham + 1 }
  | Label.Spam, Label.Unsure_v ->
      { counts with spam_as_unsure = counts.spam_as_unsure + 1 }
  | Label.Spam, Label.Spam_v ->
      { counts with spam_as_spam = counts.spam_as_spam + 1 }

let ham_delivery_rate counts =
  let total = counts.ham_as_ham + counts.ham_as_unsure + counts.ham_as_spam in
  if total = 0 then 1.0
  else float_of_int counts.ham_as_ham /. float_of_int total

type training_policy = Train_everything | Train_on_error

type config = {
  retrain_period : int;
  policy : training_policy;
  roni : Roni.config option;
  initial_training : Dataset.example array;
}

type round_report = {
  round_index : int;
  counts : verdict_counts;
  rejected : int;
}

type report = {
  rounds : round_report list;
  total_rejected : int;
  final_filter : Filter.t;
}

let retrain pool =
  let filter = Filter.create () in
  Dataset.train_filter filter (Array.of_list (List.rev pool));
  filter

let run config rng ~rounds =
  if config.retrain_period <= 0 then
    invalid_arg "Pipeline.run: retrain_period must be positive";
  (match config.roni with
  | Some roni_config
    when Array.length config.initial_training
         < roni_config.Roni.train_size + roni_config.Roni.validation_size ->
      invalid_arg "Pipeline.run: initial training pool too small for RONI"
  | Some _ | None -> ());
  (* The pool is kept as a reversed list of examples for cheap appends;
     retraining replays it in arrival order. *)
  let pool = ref (List.rev (Array.to_list config.initial_training)) in
  let trusted = ref config.initial_training in
  let filter = ref (retrain !pool) in
  let total_rejected = ref 0 in
  let reports =
    List.mapi
      (fun i round ->
        let round_index = i + 1 in
        (* 1. The user's experience this round. *)
        let counts =
          Array.fold_left
            (fun acc (e : Dataset.example) ->
              count_verdict acc e.Dataset.label
                (Dataset.classify !filter e).Classify.verdict)
            empty_counts round
        in
        (* 2. Admission into the training pool. *)
        let rejected = ref 0 in
        Array.iter
          (fun (e : Dataset.example) ->
            let wanted =
              match config.policy with
              | Train_everything -> true
              | Train_on_error ->
                  (* Mistake-driven training: only messages the current
                     filter did not classify correctly enter the pool. *)
                  not
                    (Label.verdict_agrees e.Dataset.label
                       (Dataset.classify !filter e).Classify.verdict)
            in
            let admit =
              wanted
              &&
              match config.roni with
              | None -> true
              | Some roni_config ->
                  (* Only spam-labeled mail is screened: the attack
                     model trains attack email as spam, and ham is
                     what the defense protects. *)
                  e.Dataset.label = Label.Ham
                  || not
                       (Roni.assess ~config:roni_config rng ~pool:!trusted
                          ~candidate:e.Dataset.ids)
                         .Roni.rejected
            in
            if admit then pool := e :: !pool
            else if wanted then incr rejected)
          round;
        total_rejected := !total_rejected + !rejected;
        (* 3. Periodic retraining; the screened pool becomes trusted. *)
        if round_index mod config.retrain_period = 0 then begin
          filter := retrain !pool;
          trusted := Array.of_list (List.rev !pool)
        end;
        { round_index; counts; rejected = !rejected })
      rounds
  in
  { rounds = reports; total_rejected = !total_rejected; final_filter = !filter }
