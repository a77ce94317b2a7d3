open Spamlab_stats
module Dataset = Spamlab_corpus.Dataset
module Generator = Spamlab_corpus.Generator
module Roni = Spamlab_core.Roni
module Intern = Spamlab_spambayes.Intern
module Attack = Spamlab_core.Dictionary_attack

type group = {
  name : string;
  queries : int;
  min_impact : float;
  mean_impact : float;
  max_impact : float;
  rejected : int;
}

type result = {
  threshold : float;
  non_attack : group;
  attacks : group list;
  separated : bool;
}

(* The paper tests "seven variants of the dictionary attacks": the three
   Figure-1 word sources plus truncations of the Usenet and aspell
   lists. *)
let attack_variants lab =
  let usenet size = Lab.usenet_top lab ~size in
  let scale = Lab.scale lab in
  let sz n = max 2_000 (int_of_float (scale *. float_of_int n)) in
  [
    Attack.make ~name:"optimal" ~words:(Lab.optimal_words lab);
    Attack.make ~name:"usenet-90k" ~words:(usenet (sz 90_000));
    Attack.make ~name:"usenet-50k" ~words:(usenet (sz 50_000));
    Attack.make ~name:"usenet-25k" ~words:(usenet (sz 25_000));
    Attack.make ~name:"usenet-10k" ~words:(usenet (sz 10_000));
    Attack.make ~name:"aspell-98k"
      ~words:(Lab.aspell lab ~size:(sz Spamlab_corpus.Dictionary.aspell_size));
    Attack.make ~name:"aspell-50k" ~words:(Lab.aspell lab ~size:(sz 50_000));
  ]

let group_of name impacts rejections =
  {
    name;
    queries = Array.length impacts;
    min_impact = fst (Summary.min_max impacts);
    mean_impact = Summary.mean impacts;
    max_impact = snd (Summary.min_max impacts);
    rejected = rejections;
  }

let run lab (params : Params.roni) =
  let config =
    {
      Roni.train_size = params.train_size;
      validation_size = params.validation_size;
      trials = params.trials;
      threshold = Roni.default_config.Roni.threshold;
    }
  in
  let pool =
    Lab.corpus lab ~name:"roni" ~size:params.pool_size ~spam_fraction:0.5
  in
  let tokenizer = Lab.tokenizer lab in
  (* The shared pool's vocabulary is interned; freeze so the thousands
     of in-task count lookups and candidate internings are lock-free. *)
  Intern.freeze ();
  (* Every RONI query (train/validate resampling trials over the shared
     pool) is independent; each derives its own named randomness stream
     and the whole query population fans across the domain pool.  Only
     the two group-level facts survive per query — mean ham impact and
     whether it crossed the rejection threshold — so that pair is also
     the checkpoint wire value (hex float for exact round-trip). *)
  let assess_ids stream candidate =
    let a = Roni.assess ~config (Lab.rng lab stream) ~pool ~candidate in
    (a.Roni.mean_ham_impact, a.Roni.rejected)
  in
  let encode (impact, rejected) = Printf.sprintf "%h %B" impact rejected in
  let decode _item s =
    Scanf.sscanf_opt s "%h %B%!" (fun impact rejected -> (impact, rejected))
  in
  let impacts_of assessments = Array.map fst assessments in
  let rejections_of assessments =
    Array.fold_left
      (fun acc (_, rejected) -> if rejected then acc + 1 else acc)
      0 assessments
  in
  (* Non-attack queries: fresh ordinary spam messages. *)
  let non_attack_assessments =
    Lab.checkpointed_map lab ~stage:"roni/non-attack" ~encode ~decode
      (fun i ->
        Spamlab_obs.Obs.span "roni.non_attack" @@ fun () ->
        let stream = Printf.sprintf "roni/non-attack-%d" i in
        let msg =
          Generator.spam (Lab.config lab)
            (Lab.rng lab (stream ^ "/message"))
        in
        assess_ids stream (fst (Dataset.tokenize_ids tokenizer msg)))
      (Array.init params.non_attack_queries (fun i -> i))
  in
  let non_attack =
    group_of "non-attack spam"
      (impacts_of non_attack_assessments)
      (rejections_of non_attack_assessments)
  in
  (* Attack queries: attack_repetitions assessments per variant, flattened
     into one fan-out.  Payloads are built by the [prepare] hook, before
     any fan-out but only when some query actually needs computing (the
     lab's word-source caches are not domain-safe, and a fully-restored
     resume should not tokenize seven dictionaries). *)
  let variants = attack_variants lab in
  let payloads = ref [||] in
  let prepare _queries =
    payloads :=
      Array.of_list
        (List.map
           (fun attack -> (Attack.name attack, Attack.payload tokenizer attack))
           variants);
    Intern.freeze ()
  in
  let queries =
    Array.init
      (List.length variants * params.attack_repetitions)
      (fun i ->
        (i / params.attack_repetitions, i mod params.attack_repetitions))
  in
  let attack_assessments =
    Lab.checkpointed_map lab ~stage:"roni/attack" ~prepare ~encode ~decode
      (fun (variant, repetition) ->
        Spamlab_obs.Obs.span "roni.attack" @@ fun () ->
        let name, payload = !payloads.(variant) in
        assess_ids
          (Printf.sprintf "roni/attack-%s/rep-%d" name repetition)
          payload)
      queries
  in
  let attacks =
    List.mapi
      (fun variant attack ->
        let assessments =
          Array.sub attack_assessments
            (variant * params.attack_repetitions)
            params.attack_repetitions
        in
        group_of (Attack.name attack) (impacts_of assessments)
          (rejections_of assessments))
      variants
  in
  let separated =
    List.for_all (fun g -> g.min_impact > non_attack.max_impact) attacks
  in
  { threshold = config.Roni.threshold; non_attack; attacks; separated }

let render result =
  let row g =
    [
      g.name;
      string_of_int g.queries;
      Table.f2 g.min_impact;
      Table.f2 g.mean_impact;
      Table.f2 g.max_impact;
      Printf.sprintf "%d/%d" g.rejected g.queries;
    ]
  in
  let table =
    Table.render
      ~header:
        [ "query group"; "n"; "min impact"; "mean impact"; "max impact";
          "rejected" ]
      ~rows:(row result.non_attack :: List.map row result.attacks)
  in
  let attack_min =
    List.fold_left (fun acc g -> Float.min acc g.min_impact) infinity
      result.attacks
  in
  Printf.sprintf
    "RONI defense (Section 5.1): per-email training impact\n\
     impact = mean decrease in validation ham classified as ham\n\
     rejection threshold: impact > %.2f\n\n%s\n\
     separation: attack minimum %.2f vs non-attack maximum %.2f -> %s\n"
    result.threshold table attack_min result.non_attack.max_impact
    (if result.separated then "clean separation (defense succeeds)"
     else "overlap (defense imperfect at this scale)")
