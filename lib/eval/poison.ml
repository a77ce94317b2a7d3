module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Label = Spamlab_spambayes.Label
module Classify = Spamlab_spambayes.Classify
module Token_db = Spamlab_spambayes.Token_db
module Prob_cache = Spamlab_spambayes.Prob_cache
module Obs = Spamlab_obs.Obs

(* Work counters for the observability layer.  They are bumped with
   atomic adds from inside pool tasks, so their totals are invariant
   under the [--jobs] setting (unlike the pool's scheduling spans). *)
let messages_classified = Obs.counter "eval.messages_classified"
let tokens_scored = Obs.counter "eval.tokens_scored"

let attack_count ~train_size ~fraction =
  if not (Float.is_finite fraction) || fraction < 0.0 || fraction >= 1.0 then
    invalid_arg "Poison.attack_count: fraction must lie in [0,1)";
  let raw =
    Float.round (float_of_int train_size *. fraction /. (1.0 -. fraction))
  in
  (* Fractions within float rounding of 1.0 blow n*f/(1-f) past max_int,
     and int_of_float on such values is undefined (silently 0 on some
     targets) — refuse instead. *)
  if raw >= float_of_int max_int then
    invalid_arg "Poison.attack_count: attack volume overflows";
  int_of_float raw

let base_filter tokenizer examples =
  let filter = Filter.create ~tokenizer () in
  Dataset.train_filter filter examples;
  filter

let poisoned filter ~payload ~count =
  let copy = Filter.copy filter in
  Token_db.train_many_ids (Filter.db copy) Label.Spam payload count;
  copy

let score_examples filter examples =
  Array.map
    (fun (e : Dataset.example) ->
      Obs.incr messages_classified;
      Obs.add tokens_scored (Array.length e.ids);
      ((Dataset.classify filter e).Classify.indicator, e.label))
    examples

let sweep filter ~payload ~counts test =
  (* Training the payload [k] times changes exactly two things in the
     base filter's DB: every payload token's spam count becomes
     spam0 + k, and the spam-message total becomes nspam0 + k.  So look
     each test token's base counts (and payload membership) up once,
     and score every grid point as pure arithmetic over those cached
     counts — no [Filter.copy], no retraining, and no hashtable access
     in the per-count loop.  [Prob_cache.smoothed_counts] performs the
     exact float sequence of every scoring loop and
     [Classify.score_probs] is the served selection/Fisher stage, so
     each grid point's scores are bit-identical to scoring a fresh copy
     of [filter] trained with that count. *)
  let options = Filter.options filter in
  let db = Filter.db filter in
  let nspam0 = Token_db.nspam db in
  let nham = Token_db.nham db in
  (* Base counts and payload membership are looked up by interned id. *)
  let in_payload =
    let set = Hashtbl.create (2 * Array.length payload) in
    Array.iter (fun id -> Hashtbl.replace set id ()) payload;
    fun id -> Hashtbl.mem set id
  in
  (* Test messages share most of their vocabulary, so scoring each
     token instance at each grid point recomputes (and boxes) the same
     smoothed probability thousands of times.  Instead, index the
     distinct test-fold ids into compact slots, rewrite each message as
     slot indices, and per grid point fill one unboxed float table with
     each distinct token's score — messages then classify by copying
     their floats out of that table into one reused [probs] buffer. *)
  let slot_of_id = Hashtbl.create 4096 in
  let distinct = ref [] in
  let nslots = ref 0 in
  let slot_of id =
    match Hashtbl.find_opt slot_of_id id with
    | Some s -> s
    | None ->
        let s = !nslots in
        Hashtbl.add slot_of_id id s;
        distinct := id :: !distinct;
        incr nslots;
        s
  in
  let prepped =
    Array.map
      (fun (e : Dataset.example) ->
        (e.Dataset.label, e.Dataset.ids, Array.map slot_of e.Dataset.ids))
      test
  in
  let distinct = Array.of_list (List.rev !distinct) in
  let nslots = !nslots in
  let spam0 = Array.map (fun id -> Token_db.spam_count_id db id) distinct in
  let ham0 = Array.map (fun id -> Token_db.ham_count_id db id) distinct in
  let payload_member = Array.map in_payload distinct in
  let slot_score = Array.make nslots 0.5 in
  let probs =
    Array.make
      (Array.fold_left
         (fun m (e : Dataset.example) -> max m (Array.length e.Dataset.ids))
         0 test)
      0.0
  in
  List.map
    (fun count ->
      Obs.span "poison.sweep.point" @@ fun () ->
      let nspam = nspam0 + count in
      for s = 0 to nslots - 1 do
        let spam =
          if payload_member.(s) then spam0.(s) + count else spam0.(s)
        in
        slot_score.(s) <-
          Prob_cache.smoothed_counts options ~spam ~ham:ham0.(s) ~nspam ~nham
      done;
      Array.map
        (fun (label, ids, slots) ->
          let n = Array.length slots in
          Obs.incr messages_classified;
          Obs.add tokens_scored n;
          for i = 0 to n - 1 do
            probs.(i) <- slot_score.(slots.(i))
          done;
          ((Classify.score_probs options ids probs n).Classify.indicator, label))
        prepped)
    counts

let confusion_of_scores options scores =
  let confusion = Confusion.create () in
  Array.iter
    (fun (score, gold) ->
      Confusion.add confusion gold
        (Classify.verdict_of_indicator options score))
    scores;
  confusion
