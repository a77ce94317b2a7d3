open Spamlab_stats
module Corpus = Spamlab_corpus
module Obs = Spamlab_obs.Obs

type corpus_key = { name : string; size : int; spam_fraction : float }

type t = {
  scale : float;
  jobs : int;
  config : Corpus.Generator.config;
  tokenizer : Spamlab_tokenizer.Tokenizer.t;
  root : Rng.t;
  usenet_full : string array option Atomic.t;
  lock : Mutex.t;  (* guards [pool] and [usenet_full] initialization *)
  mutable pool : Spamlab_parallel.Pool.t option;
  cache_lock : Mutex.t;
  messages_cache : (corpus_key, Corpus.Trec.labeled array) Hashtbl.t;
  examples_cache :
    (corpus_key * string, Corpus.Dataset.example array) Hashtbl.t;
  checkpoint : Checkpoint.t option;
}

let cache_hit = Obs.counter "lab.corpus_cache.hit"
let cache_miss = Obs.counter "lab.corpus_cache.miss"
let checkpoint_hit = Obs.counter "checkpoint.hit"
let checkpoint_miss = Obs.counter "checkpoint.miss"

let create ?(seed = 42) ?(scale = 1.0) ?jobs ?checkpoint () =
  let jobs =
    match jobs with
    | Some j -> (
        match Spamlab_parallel.validate_jobs j with
        | Ok j -> j
        | Error msg -> invalid_arg msg)
    | None -> Spamlab_parallel.default_jobs ()
  in
  {
    scale;
    jobs;
    config = Corpus.Generator.default_config ~seed ();
    tokenizer = Spamlab_tokenizer.Tokenizer.spambayes;
    root = Rng.create seed;
    usenet_full = Atomic.make None;
    lock = Mutex.create ();
    pool = None;
    cache_lock = Mutex.create ();
    messages_cache = Hashtbl.create 16;
    examples_cache = Hashtbl.create 16;
    checkpoint;
  }

let scale t = t.scale
let config t = t.config
let tokenizer t = t.tokenizer

let pool t =
  Mutex.protect t.lock (fun () ->
      match t.pool with
      | Some pool -> pool
      | None ->
          let pool = Spamlab_parallel.Pool.create ~jobs:t.jobs in
          t.pool <- Some pool;
          pool)

let shutdown t =
  let pool =
    Mutex.protect t.lock (fun () ->
        let p = t.pool in
        t.pool <- None;
        p)
  in
  match pool with
  | None -> ()
  | Some pool -> Spamlab_parallel.Pool.shutdown pool

let rng t name = Rng.split_named t.root name

let vocabulary t = t.config.Corpus.Generator.vocabulary

let aspell t ~size = Corpus.Dictionary.aspell ~size (vocabulary t)

(* Double-checked: the Atomic read is the lock-free fast path; the
   build is serialized so pool workers cannot both construct the
   ranking (the PR 4 race fix — plain mutable option fields have no
   publication guarantee under the OCaml 5 memory model). *)
let usenet_full t =
  match Atomic.get t.usenet_full with
  | Some words -> words
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get t.usenet_full with
          | Some words -> words
          | None ->
              let words = Corpus.Usenet.ranked (vocabulary t) in
              Atomic.set t.usenet_full (Some words);
              words)

let usenet_top t ~size = Corpus.Usenet.top (usenet_full t) size

let optimal_words t =
  Corpus.Language_model.support t.config.Corpus.Generator.ham_model

(* Corpus memoization.  The key is (stream name, size, spam_fraction)
   — plus the tokenizer name for the example-level cache — and the
   generating rng is always a fresh [split_named] child of the lab
   root, so a cached corpus is exactly what recomputation would
   produce.  Lookups take [cache_lock]; the (expensive, internally
   parallel) compute runs outside it so concurrent misses on
   different keys do not serialize.  On a racing duplicate compute the
   first insert wins, keeping every caller on one physical corpus. *)
let cached lock tbl key compute =
  let existing = Mutex.protect lock (fun () -> Hashtbl.find_opt tbl key) in
  match existing with
  | Some v ->
      Obs.incr cache_hit;
      v
  | None ->
      Obs.incr cache_miss;
      let v = compute () in
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v' -> v'
          | None ->
              Hashtbl.add tbl key v;
              v)

let cached_messages t ~name ~size ~spam_fraction =
  cached t.cache_lock t.messages_cache { name; size; spam_fraction }
    (fun () ->
      Corpus.Trec.generate ~pool:(pool t) t.config (rng t name) ~size
        ~spam_fraction)

(* Callers shuffle and partition corpora in place: hand out a fresh
   array (sharing the immutable elements), never the cached one. *)
let corpus_messages t ~name ~size ~spam_fraction =
  Array.copy (cached_messages t ~name ~size ~spam_fraction)

let corpus t ~name ~size ~spam_fraction =
  let key =
    ( { name; size; spam_fraction },
      Spamlab_tokenizer.Tokenizer.name t.tokenizer )
  in
  Array.copy
    (cached t.cache_lock t.examples_cache key (fun () ->
         Corpus.Dataset.of_labeled ~pool:(pool t) t.tokenizer
           (cached_messages t ~name ~size ~spam_fraction)))

(* Checkpointed fan-out.  Without a checkpoint this is exactly
   [Pool.map_array] (after the optional [prepare] over the full input),
   so checkpoint-free runs stay byte-identical to pre-checkpoint
   behavior.  With one, each index is first looked up under
   "<stage>/<index>"; hits are decoded and skipped, misses go through
   [prepare] (which sees only the missed items — the hook exists so
   expensive shared setup can be scoped to what actually needs
   computing) and then through the pool, each completed cell recording
   its encoded result before the map returns.  A decode failure — a
   corrupt value, or an encoding change — counts as a miss and is
   recomputed, never trusted.

   Correctness rests on the same contract as the pool itself: [f] is
   pure per element with named-stream randomness, so computing only a
   subset yields the same values the full map would have produced. *)
let checkpointed_map (type a b) t ~stage ?dim ?prepare ~(encode : b -> string)
    ~(decode : a -> string -> b option) (f : a -> b) (arr : a array) : b array
    =
  let run_prepare items =
    match prepare with Some p -> p items | None -> ()
  in
  match t.checkpoint with
  | None ->
      run_prepare arr;
      Spamlab_parallel.Pool.map_array (pool t) f arr
  | Some ck ->
      let n = Array.length arr in
      (* The checkpoint header only pins (seed, scale); a sweep that
         varies another dimension (e.g. tenants --users) must fold it
         into the key or two sweep points would collide.  Absent [dim]
         the key is the historical "<stage>/<index>", so pre-existing
         checkpoint files stay readable. *)
      let key i =
        match dim with
        | None -> Printf.sprintf "%s/%d" stage i
        | Some d -> Printf.sprintf "%s/%s/%d" stage d i
      in
      let results = Array.make n None in
      let misses = ref [] in
      for i = n - 1 downto 0 do
        match Checkpoint.find ck (key i) with
        | Some v -> (
            match decode arr.(i) v with
            | Some r ->
                Obs.incr checkpoint_hit;
                results.(i) <- Some r
            | None ->
                Obs.incr checkpoint_miss;
                misses := i :: !misses)
        | None ->
            Obs.incr checkpoint_miss;
            misses := i :: !misses
      done;
      let miss_idx = Array.of_list !misses in
      if Array.length miss_idx > 0 then begin
        run_prepare (Array.map (fun i -> arr.(i)) miss_idx);
        let computed =
          Spamlab_parallel.Pool.map_array (pool t)
            (fun i ->
              let r = f arr.(i) in
              Checkpoint.record ck ~key:(key i) ~value:(encode r);
              r)
            miss_idx
        in
        Array.iteri (fun j i -> results.(i) <- Some computed.(j)) miss_idx
      end;
      Array.map (function Some r -> r | None -> assert false) results
