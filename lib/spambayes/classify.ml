open Spamlab_stats

type clue = { token : string; score : float }

type result = {
  indicator : float;
  verdict : Label.verdict;
  clues : clue list;
}

(* SpamBayes boundary semantics: a score at a cutoff takes the more
   severe class — I >= theta1 is spam, theta0 <= I < theta1 is unsure,
   I < theta0 is ham.  (Nelson et al. report accuracy at the theta1
   threshold; the previous <= comparisons classified an indicator
   exactly at spam_cutoff as unsure and at ham_cutoff as ham.) *)
let verdict_of_indicator (options : Options.t) indicator =
  if indicator >= options.spam_cutoff then Label.Spam_v
  else if indicator >= options.ham_cutoff then Label.Unsure_v
  else Label.Ham_v

(* The scoring engine: where each interned id's smoothed probability
   comes from — straight off a db, through a per-filter probability
   cache, or through the tenant fast path (the store's shared prior
   cache beside the tenant's overlay).  Each names one of
   [Prob_cache]'s loops, and all of them feed the one selection/Fisher
   pipeline, [score_probs], so the variants can be differentially
   tested against each other.  A variant rather than a closure: the
   scoring loop dispatches once per message. *)
type engine =
  | Uncached of Options.t * Token_db.t
  | Cached of Prob_cache.t
  | Overlay of Prob_cache.t * Token_db.t

let engine options db = Uncached (options, db)
let engine_cached cache = Cached cache
let engine_overlay cache db = Overlay (cache, db)

let engine_options = function
  | Uncached (options, _) -> options
  | Cached cache | Overlay (cache, _) -> Prob_cache.options cache

(* Selection scratch, one per domain: candidates accumulate into
   parallel unboxed arrays (id, probability, strength) and an index
   permutation is sorted instead of the candidates themselves.  This
   replaces the boxed candidate list + [List.sort]: scoring a message
   allocates nothing per candidate or winner (only [explain] builds
   clue records), swaps move machine ints, and comparisons read a
   precomputed strength instead of recomputing [Float.abs] — which
   matters because selection, not probability lookup, is most of a
   message's scoring time. *)
type scratch = {
  mutable s_raw : float array;  (* stage-one probabilities, then winners *)
  mutable s_ids : int array;
  mutable s_probs : float array;
  mutable s_str : float array;
  mutable s_idx : int array;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        s_raw = Array.make 256 0.0;
        s_ids = Array.make 256 0;
        s_probs = Array.make 256 0.0;
        s_str = Array.make 256 0.0;
        s_idx = Array.make 256 0;
      })

let ensure_scratch sc n =
  if Array.length sc.s_ids < n then begin
    let cap = max n (2 * Array.length sc.s_ids) in
    sc.s_raw <- Array.make cap 0.0;
    sc.s_ids <- Array.make cap 0;
    sc.s_probs <- Array.make cap 0.0;
    sc.s_str <- Array.make cap 0.0;
    sc.s_idx <- Array.make cap 0
  end

(* The selection order is a total order on distinct tokens: stronger
   first, ties by token bytes ascending.  Ties are common —
   token probabilities cluster (every hapax of a class scores the
   same), so a lot of comparisons fall through to the tie-break — and
   byte-comparing tokens there is what used to dominate scoring.  For
   ids covered by the interner's rank table (everything interned
   before the last [Intern.freeze] — in practice the whole trained
   vocabulary) the tie-break is one int compare; the byte compare only
   runs for ids interned since.  Strengths are |p - 0.5| ∈ [0, 0.5],
   never NaN and never -0.0, so flat float compares agree with
   [Float.compare]; equal positions (duplicate ids) are identical
   records, so unstable sorting cannot change the materialized
   output. *)
let[@inline] str_at sc a = Array.unsafe_get sc.s_str a

let[@inline] token_before sc a b =
  let ia = Array.unsafe_get sc.s_ids a and ib = Array.unsafe_get sc.s_ids b in
  let ra = Intern.rank ia and rb = Intern.rank ib in
  if ra >= 0 && rb >= 0 then ra < rb
  else String.compare (Intern.to_string ia) (Intern.to_string ib) < 0

let[@inline] before sc a b =
  let sa = str_at sc a and sb = str_at sc b in
  if sa <> sb then sa > sb else token_before sc a b

(* In-place quicksort over the index permutation: Hoare partition,
   median-of-three pivot, insertion sort below 12 elements. *)
let sort_cands sc c =
  let idx = sc.s_idx in
  let swap i j =
    let t = Array.unsafe_get idx i in
    Array.unsafe_set idx i (Array.unsafe_get idx j);
    Array.unsafe_set idx j t
  in
  let rec loop lo hi =
    if hi - lo < 12 then begin
      if hi > lo then
        for i = lo + 1 to hi do
          let v = idx.(i) in
          let j = ref (i - 1) in
          while !j >= lo && before sc v idx.(!j) do
            idx.(!j + 1) <- idx.(!j);
            decr j
          done;
          idx.(!j + 1) <- v
        done
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if before sc idx.(mid) idx.(lo) then swap mid lo;
      if before sc idx.(hi) idx.(lo) then swap hi lo;
      if before sc idx.(hi) idx.(mid) then swap hi mid;
      let pivot = idx.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while before sc idx.(!i) pivot do
          incr i
        done;
        while before sc pivot idx.(!j) do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      loop lo !j;
      loop !i hi
    end
  in
  if c > 1 then loop 0 (c - 1)

(* Stage one of scoring: each token's probability lands in the scratch
   [s_raw] array, through the engine's loop. *)
let fill_raw e ids n raw =
  match e with
  | Uncached (options, db) -> Prob_cache.collect_uncached options db ids n raw
  | Cached cache -> Prob_cache.collect cache ids n raw
  | Overlay (cache, db) -> Prob_cache.collect_overlay cache db ids n raw

(* Stage two, the one δ(E) selection in the stack: candidates at or
   beyond the strength band are copied into the scratch, their index
   permutation is sorted, the first [max_discriminators] win, and their
   scores land in sort order at the front of [s_raw], the buffer Fisher
   folds over.  Returns the winner count.  [probs] is only read, and
   only before the sort, so stage one's [s_raw] can be passed in and
   then reused for the winners. *)
let select (options : Options.t) ids probs n =
  if n < 0 || n > Array.length ids || n > Array.length probs then
    invalid_arg "Classify.score_probs: prefix length out of bounds";
  let min_strength = options.minimum_prob_strength in
  let sc = Domain.DLS.get scratch_key in
  ensure_scratch sc n;
  let c = ref 0 in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get ids i in
    let p = Array.unsafe_get probs i in
    let s = Float.abs (p -. 0.5) in
    if s >= min_strength then begin
      let k = !c in
      Array.unsafe_set sc.s_ids k id;
      Array.unsafe_set sc.s_probs k p;
      Array.unsafe_set sc.s_str k s;
      Array.unsafe_set sc.s_idx k k;
      c := k + 1
    end
  done;
  let c = !c in
  sort_cands sc c;
  let w = min options.max_discriminators c in
  for k = 0 to w - 1 do
    Array.unsafe_set sc.s_raw k (Array.unsafe_get sc.s_probs (Array.unsafe_get sc.s_idx k))
  done;
  w

(* The Fisher fold over the [w] winners [select] left in [s_raw]. *)
let result options w clues =
  let indicator = Fisher.indicator (Domain.DLS.get scratch_key).s_raw w in
  { indicator; verdict = verdict_of_indicator options indicator; clues }

let score_probs options ids probs n = result options (select options ids probs n) []

(* Stage one into the scratch, then the selection; the winner count. *)
let select_engine e ids n =
  let sc = Domain.DLS.get scratch_key in
  ensure_scratch sc n;
  fill_raw e ids n sc.s_raw;
  select (engine_options e) ids sc.s_raw n

let score_engine_sub e ids n = result (engine_options e) (select_engine e ids n) []
let score_engine e ids = score_engine_sub e ids (Array.length ids)

(* The same selection, then the winners as records, built back to
   front so the list comes out in sort order; losers never become
   records. *)
let explain e ids n =
  let w = select_engine e ids n in
  let sc = Domain.DLS.get scratch_key in
  let clues = ref [] in
  for k = w - 1 downto 0 do
    let p = sc.s_idx.(k) in
    clues := { token = Intern.to_string sc.s_ids.(p); score = sc.s_probs.(p) } :: !clues
  done;
  result (engine_options e) w !clues
