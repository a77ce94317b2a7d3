module Dataset = Spamlab_corpus.Dataset
module Filter = Spamlab_spambayes.Filter
module Token_db = Spamlab_spambayes.Token_db
module Classify = Spamlab_spambayes.Classify
module Options = Spamlab_spambayes.Options
module Label = Spamlab_spambayes.Label
module Attack = Spamlab_core.Dictionary_attack
module Rng = Spamlab_stats.Rng
module Store = Spamlab_store.Store

type config = {
  users : int list;
  communities : int;
  train_per_user : int;
  eval_per_user : int;
  poison_fraction : float;
  attack_count : int;
  store_dir : string option;
  shards : int;
  cache : int;
}

let default_config =
  {
    users = [ 1000 ];
    communities = 8;
    train_per_user = 3;
    eval_per_user = 2;
    poison_fraction = 0.1;
    attack_count = 4;
    store_dir = None;
    shards = Store.default_config.shards;
    cache = Store.default_config.cache;
  }

(* Aggregated per-user outcomes of one chunk of the user space: ham
   verdict tallies for clean users, for poisoned users before the
   defense, and for poisoned users after it. *)
type agg = {
  mutable a_users : int;
  mutable a_poisoned : int;
  mutable clean_ham : int;
  mutable clean_unsure : int;
  mutable clean_spam : int;
  mutable pre_ham : int;
  mutable pre_unsure : int;
  mutable pre_spam : int;
  mutable post_ham : int;
  mutable post_unsure : int;
  mutable post_spam : int;
}

let agg () =
  {
    a_users = 0;
    a_poisoned = 0;
    clean_ham = 0;
    clean_unsure = 0;
    clean_spam = 0;
    pre_ham = 0;
    pre_unsure = 0;
    pre_spam = 0;
    post_ham = 0;
    post_unsure = 0;
    post_spam = 0;
  }

let agg_add into a =
  into.a_users <- into.a_users + a.a_users;
  into.a_poisoned <- into.a_poisoned + a.a_poisoned;
  into.clean_ham <- into.clean_ham + a.clean_ham;
  into.clean_unsure <- into.clean_unsure + a.clean_unsure;
  into.clean_spam <- into.clean_spam + a.clean_spam;
  into.pre_ham <- into.pre_ham + a.pre_ham;
  into.pre_unsure <- into.pre_unsure + a.pre_unsure;
  into.pre_spam <- into.pre_spam + a.pre_spam;
  into.post_ham <- into.post_ham + a.post_ham;
  into.post_unsure <- into.post_unsure + a.post_unsure;
  into.post_spam <- into.post_spam + a.post_spam

let agg_encode a =
  String.concat ","
    (List.map string_of_int
       [
         a.a_users; a.a_poisoned; a.clean_ham; a.clean_unsure; a.clean_spam;
         a.pre_ham; a.pre_unsure; a.pre_spam; a.post_ham; a.post_unsure;
         a.post_spam;
       ])

let agg_decode s =
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | [
   Some a_users; Some a_poisoned; Some clean_ham; Some clean_unsure;
   Some clean_spam; Some pre_ham; Some pre_unsure; Some pre_spam;
   Some post_ham; Some post_unsure; Some post_spam;
  ] ->
      Some
        {
          a_users; a_poisoned; clean_ham; clean_unsure; clean_spam; pre_ham;
          pre_unsure; pre_spam; post_ham; post_unsure; post_spam;
        }
  | _ -> None

let chunk_size = 1024

(* Corpus sizes scale with the lab like everything else, but stay
   independent of the user count: tenants share community pools, they
   do not each own a corpus. *)
let pool_size lab base = max 64 (int_of_float (float_of_int base *. Lab.scale lab))

let user_name i = Printf.sprintf "user-%06d" i

type world = {
  options : Options.t;
  payload : int array;
  (* per community: training pool and all-ham eval pool *)
  train_pools : Dataset.example array array;
  eval_pools : Dataset.example array array;
}

let build_world lab cfg =
  let tokenizer = Lab.tokenizer lab in
  (* Correlated but distinct: every community corpus comes from the
     same generative substrate (vocabulary, language models), under its
     own rng stream and spam prevalence. *)
  let train_pools =
    Array.init cfg.communities (fun c ->
        let spam_fraction =
          0.3
          +. (0.4 *. float_of_int c /. float_of_int (max 1 (cfg.communities - 1)))
        in
        Lab.corpus lab
          ~name:(Printf.sprintf "tenants/community-%d" c)
          ~size:(pool_size lab 256) ~spam_fraction)
  in
  let eval_pools =
    Array.init cfg.communities (fun c ->
        Lab.corpus lab
          ~name:(Printf.sprintf "tenants/eval-%d" c)
          ~size:(pool_size lab 96) ~spam_fraction:0.0)
  in
  let payload =
    let words = Lab.aspell lab ~size:(pool_size lab 1000) in
    Attack.payload tokenizer (Attack.make ~name:"aspell" ~words)
  in
  { options = Options.default; payload; train_pools; eval_pools }

(* The global prior every tenant starts from: the shared filter trained
   on its own stream — the state a provider would ship to new
   mailboxes. *)
let build_prior lab =
  let examples =
    Lab.corpus lab ~name:"tenants/prior" ~size:(pool_size lab 256)
      ~spam_fraction:0.5
  in
  let filter = Poison.base_filter (Lab.tokenizer lab) examples in
  Token_db.copy (Filter.db filter)

let open_store cfg ~options ~nusers ~prior =
  let backend =
    match cfg.store_dir with
    | None -> `Memory
    | Some dir ->
        (* One subdirectory per sweep point: sweep points are distinct
           stores, not reopenings of one. *)
        `Sharded (Filename.concat dir (Printf.sprintf "users-%d" nusers))
  in
  Store.open_store ~options ~prior
    {
      Store.backend;
      shards = cfg.shards;
      cache = cfg.cache;
      compact_ratio = Store.default_config.compact_ratio;
    }

(* One user's life: sample a community and training slice, train them
   (poisoned users additionally train the dictionary payload as spam),
   classify the community's held-out ham, then for poisoned users
   untrain the attack (the defense) and classify again. *)
let run_user cfg world store users_rng i a =
  let rng = Rng.split_indexed users_rng i in
  let c = Rng.int rng (Array.length world.train_pools) in
  let train_pool = world.train_pools.(c) in
  let eval_pool = world.eval_pools.(c) in
  let user = user_name i in
  for _ = 1 to cfg.train_per_user do
    let ex = train_pool.(Rng.int rng (Array.length train_pool)) in
    Store.train_ids store ~user ex.Dataset.label ex.Dataset.ids
  done;
  let poisoned = Rng.bernoulli rng cfg.poison_fraction in
  if poisoned then
    Store.train_many_ids store ~user Label.Spam world.payload cfg.attack_count;
  let eval_idx =
    Array.init cfg.eval_per_user (fun _ -> Rng.int rng (Array.length eval_pool))
  in
  (* Scores through the store's shared prior cache + overlay dirty set
     — bit-identical to [Classify.score_engine (Classify.engine
     world.options db)]. *)
  let tally (ham, unsure, spam) =
    Store.with_user_engine store user (fun engine ->
        Array.iter
          (fun j ->
            let ex = eval_pool.(j) in
            let r = Classify.score_engine engine ex.Dataset.ids in
            match r.Classify.verdict with
            | Label.Ham_v -> incr ham
            | Label.Unsure_v -> incr unsure
            | Label.Spam_v -> incr spam)
          eval_idx)
  in
  a.a_users <- a.a_users + 1;
  if poisoned then begin
    a.a_poisoned <- a.a_poisoned + 1;
    let ham = ref 0 and unsure = ref 0 and spam = ref 0 in
    tally (ham, unsure, spam);
    a.pre_ham <- a.pre_ham + !ham;
    a.pre_unsure <- a.pre_unsure + !unsure;
    a.pre_spam <- a.pre_spam + !spam;
    for _ = 1 to cfg.attack_count do
      Store.untrain_ids store ~user Label.Spam world.payload
    done;
    let ham = ref 0 and unsure = ref 0 and spam = ref 0 in
    tally (ham, unsure, spam);
    a.post_ham <- a.post_ham + !ham;
    a.post_unsure <- a.post_unsure + !unsure;
    a.post_spam <- a.post_spam + !spam
  end
  else begin
    let ham = ref 0 and unsure = ref 0 and spam = ref 0 in
    tally (ham, unsure, spam);
    a.clean_ham <- a.clean_ham + !ham;
    a.clean_unsure <- a.clean_unsure + !unsure;
    a.clean_spam <- a.clean_spam + !spam
  end

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let render_point nusers (a : agg) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "users=%d poisoned=%d (%.1f%%)\n" a.a_users a.a_poisoned
       (pct a.a_poisoned a.a_users));
  let line tag ham unsure spam =
    let total = ham + unsure + spam in
    Buffer.add_string b
      (Printf.sprintf
         "  %-28s ham=%d unsure=%d spam=%d  misclassified=%.2f%%\n" tag ham
         unsure spam
         (pct (unsure + spam) total))
  in
  line "clean ham" a.clean_ham a.clean_unsure a.clean_spam;
  line "poisoned ham (attacked)" a.pre_ham a.pre_unsure a.pre_spam;
  line "poisoned ham (defended)" a.post_ham a.post_unsure a.post_spam;
  ignore nusers;
  Buffer.contents b

(* One sweep point: open a fresh store for [nusers], run every user
   chunk over the lab pool (resumable under a checkpoint, keyed by the
   users dimension so sweep points cannot collide), aggregate in chunk
   order. *)
let run_point lab cfg world ~nusers =
  let prior = build_prior lab in
  match open_store cfg ~options:world.options ~nusers ~prior with
  | Error e -> Error e
  | Ok store ->
      Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
      let users_rng = Lab.rng lab "tenants/users" in
      let nchunks = (nusers + chunk_size - 1) / chunk_size in
      let chunks =
        Array.init nchunks (fun k ->
            (k * chunk_size, min chunk_size (nusers - (k * chunk_size))))
      in
      let results =
        Lab.checkpointed_map lab ~stage:"tenants/chunk"
          ~dim:(Printf.sprintf "users=%d" nusers)
          ~encode:agg_encode
          ~decode:(fun _ s -> agg_decode s)
          (fun (start, len) ->
            let a = agg () in
            for i = start to start + len - 1 do
              run_user cfg world store users_rng i a
            done;
            a)
          chunks
      in
      let total = agg () in
      Array.iter (agg_add total) results;
      Store.compact_all store;
      Ok (total, Store.stats store)

let run lab cfg =
  let world = build_world lab cfg in
  Spamlab_spambayes.Intern.freeze ();
  let b = Buffer.create 1024 in
  let detail = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "Tenants: per-user Bayes state under a %.0f%%-poisoned population\n\
        communities=%d train/user=%d eval/user=%d attack=%d emails\n\n"
       (100.0 *. cfg.poison_fraction)
       cfg.communities cfg.train_per_user cfg.eval_per_user cfg.attack_count);
  let rec go = function
    | [] -> Ok (Buffer.contents b, Buffer.contents detail)
    | nusers :: rest -> (
        match run_point lab cfg world ~nusers with
        | Error e -> Error e
        | Ok (total, stats) ->
            Buffer.add_string b (render_point nusers total);
            (* Store traffic goes to the detail (stderr) channel: a
               checkpoint-resumed run restores chunk outcomes without
               re-training, so these counters are resume-variant even
               though classification outcomes are not. *)
            Buffer.add_string detail
              (Printf.sprintf
                 "users=%d store: journal_ops=%d journal_bytes=%d \
                  compactions=%d evictions=%d\n"
                 nusers stats.Store.journal_ops stats.Store.journal_bytes
                 stats.Store.compactions stats.Store.evictions);
            go rest)
  in
  go cfg.users
