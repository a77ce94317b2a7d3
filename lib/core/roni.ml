open Spamlab_stats
module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Token_db = Spamlab_spambayes.Token_db

type config = {
  train_size : int;
  validation_size : int;
  trials : int;
  threshold : float;
}

let default_config =
  { train_size = 20; validation_size = 50; trials = 5; threshold = 5.0 }

type assessment = {
  mean_ham_impact : float;
  per_trial : float array;
  rejected : bool;
}

let ham_as_ham filter validation =
  Array.fold_left
    (fun acc (e : Dataset.example) ->
      if e.label = Label.Ham
         && (Dataset.classify filter e).Classify.verdict = Label.Ham_v
      then acc + 1
      else acc)
    0 validation

(* [ham_as_ham] of [filter] plus one spam training of the candidate,
   without materializing that filter: admitting the candidate changes
   exactly two inputs of every token score — candidate members read
   spam+1 and the spam total reads nspam+1 — so each validation message
   is scored from the baseline's counts with that adjustment applied
   arithmetically.  [Prob_cache.smoothed_counts] performs the exact
   float sequence of the DB-lookup path and [Classify.score_probs] is
   the served selection/Fisher stage, so verdicts are bit-identical to
   classifying a copy trained on the candidate (the same argument as
   [Poison.sweep]) — at none of the per-trial cost of training a
   dictionary-sized candidate into the copy. *)
let ham_as_ham_with_candidate filter ~candidate_member validation =
  let module Prob_cache = Spamlab_spambayes.Prob_cache in
  let options = Filter.options filter in
  let db = Filter.db filter in
  let nspam = Token_db.nspam db + 1 in
  let nham = Token_db.nham db in
  let probs =
    Array.make
      (Array.fold_left
         (fun m (e : Dataset.example) -> max m (Array.length e.ids))
         0 validation)
      0.0
  in
  Array.fold_left
    (fun acc (e : Dataset.example) ->
      if e.label = Label.Ham then begin
        let n = Array.length e.ids in
        for i = 0 to n - 1 do
          let id = e.ids.(i) in
          let s = Token_db.slot db id in
          let spam =
            Token_db.slot_spam db s + if candidate_member id then 1 else 0
          in
          let ham = Token_db.slot_ham db s in
          probs.(i) <- Prob_cache.smoothed_counts options ~spam ~ham ~nspam ~nham
        done;
        if
          (Classify.score_probs options e.ids probs n).Classify.verdict
          = Label.Ham_v
        then acc + 1
        else acc
      end
      else acc)
    0 validation

let assess ?(config = default_config) rng ~pool ~candidate =
  let needed = config.train_size + config.validation_size in
  if Array.length pool < needed then
    invalid_arg "Roni.assess: pool smaller than train + validation sizes";
  if not (Array.exists (fun (e : Dataset.example) -> e.label = Label.Ham) pool)
  then invalid_arg "Roni.assess: pool contains no ham";
  (* The candidate's ids become a membership set once; every trial
     then measures its admission without building the
     with-candidate filter at all (see [ham_as_ham_with_candidate]).
     The per-trial cost is the 20-message baseline train plus 2×|V_ham|
     classifications — independent of the candidate's size. *)
  let candidate_member =
    (* A db trained on the candidate alone: sized by the candidate, not
       by the intern table, and probed once per validation-token
       instance by the with-candidate scoring loop. *)
    let db = Token_db.create () in
    Token_db.train_ids db Label.Spam candidate;
    fun id -> Token_db.spam_count_id db id > 0
  in
  let per_trial =
    Array.init config.trials (fun _ ->
        let sample = Rng.sample_without_replacement rng needed pool in
        let train = Array.sub sample 0 config.train_size in
        let validation =
          Array.sub sample config.train_size config.validation_size
        in
        let baseline = Filter.create () in
        Dataset.train_filter baseline train;
        let before = ham_as_ham baseline validation in
        let after =
          ham_as_ham_with_candidate baseline ~candidate_member validation
        in
        float_of_int (before - after))
  in
  let mean_ham_impact = Summary.mean per_trial in
  {
    mean_ham_impact;
    per_trial;
    rejected = mean_ham_impact > config.threshold;
  }
