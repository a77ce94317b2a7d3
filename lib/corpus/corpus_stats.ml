module Label = Spamlab_spambayes.Label

type t = {
  messages : int;
  ham : int;
  spam : int;
  raw_tokens : int;
  distinct_tokens : int;
  mean_tokens_per_message : float;
  median_tokens_per_message : float;
  p95_tokens_per_message : float;
  singleton_fraction : float;
  rare_fraction : float;
  ham_vocabulary : int;
  spam_vocabulary : int;
  shared_vocabulary : int;
  heaps_curve : (int * int) list;
}

type token_info = {
  mutable documents : int;
  mutable in_ham : bool;
  mutable in_spam : bool;
}

let measure (examples : Dataset.example array) =
  let n = Array.length examples in
  if n = 0 then invalid_arg "Corpus_stats.measure: empty corpus";
  let table : (int, token_info) Hashtbl.t = Hashtbl.create 65536 in
  let raw_tokens = ref 0 in
  let ham = ref 0 in
  let spam = ref 0 in
  let lengths = Array.make n 0.0 in
  let checkpoint_every = max 1 (n / 10) in
  let heaps = ref [] in
  Array.iteri
    (fun i (e : Dataset.example) ->
      (match e.label with
      | Label.Ham -> incr ham
      | Label.Spam -> incr spam);
      raw_tokens := !raw_tokens + e.raw_token_count;
      lengths.(i) <- float_of_int e.raw_token_count;
      Array.iter
        (fun id ->
          let info =
            match Hashtbl.find_opt table id with
            | Some info -> info
            | None ->
                let info = { documents = 0; in_ham = false; in_spam = false } in
                Hashtbl.replace table id info;
                info
          in
          info.documents <- info.documents + 1;
          match e.label with
          | Label.Ham -> info.in_ham <- true
          | Label.Spam -> info.in_spam <- true)
        e.ids;
      if (i + 1) mod checkpoint_every = 0 || i + 1 = n then
        heaps := (i + 1, Hashtbl.length table) :: !heaps)
    examples;
  let distinct = Hashtbl.length table in
  let singletons = ref 0 in
  let rare = ref 0 in
  let ham_vocab = ref 0 in
  let spam_vocab = ref 0 in
  let shared = ref 0 in
  Hashtbl.iter
    (fun _ info ->
      if info.documents = 1 then incr singletons;
      if info.documents <= 3 then incr rare;
      if info.in_ham then incr ham_vocab;
      if info.in_spam then incr spam_vocab;
      if info.in_ham && info.in_spam then incr shared)
    table;
  {
    messages = n;
    ham = !ham;
    spam = !spam;
    raw_tokens = !raw_tokens;
    distinct_tokens = distinct;
    mean_tokens_per_message = Spamlab_stats.Summary.mean lengths;
    median_tokens_per_message = Spamlab_stats.Summary.median lengths;
    p95_tokens_per_message = Spamlab_stats.Summary.quantile lengths 0.95;
    singleton_fraction = float_of_int !singletons /. float_of_int distinct;
    rare_fraction = float_of_int !rare /. float_of_int distinct;
    ham_vocabulary = !ham_vocab;
    spam_vocabulary = !spam_vocab;
    shared_vocabulary = !shared;
    heaps_curve = List.rev !heaps;
  }

let render t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "Corpus characterization\n\n";
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "messages                 %d (%d ham, %d spam)" t.messages t.ham t.spam;
  line "token instances          %d" t.raw_tokens;
  line "distinct tokens          %d" t.distinct_tokens;
  line "tokens per message       mean %.1f, median %.1f, p95 %.1f"
    t.mean_tokens_per_message t.median_tokens_per_message
    t.p95_tokens_per_message;
  line "singleton tokens          %.1f%% of vocabulary (rare <=3 docs: %.1f%%)"
    (100.0 *. t.singleton_fraction)
    (100.0 *. t.rare_fraction);
  line "ham vocabulary            %d distinct tokens" t.ham_vocabulary;
  line "spam vocabulary           %d distinct tokens" t.spam_vocabulary;
  line "seen in both classes      %d (%.1f%% of vocabulary)"
    t.shared_vocabulary
    (100.0 *. float_of_int t.shared_vocabulary
    /. float_of_int t.distinct_tokens);
  line "";
  line "vocabulary growth (Heaps' law - sub-linear growth means fresh";
  line "rare tokens keep arriving, the fuel of the poisoning attacks):";
  List.iter
    (fun (msgs, vocab) -> line "  after %6d messages: %8d distinct tokens" msgs vocab)
    t.heaps_curve;
  Buffer.contents buffer
