module Obs = Spamlab_obs.Obs
module A = Bigarray.Array1

let c_hits = Obs.counter "spambayes.prob_cache_hits"
let c_fills = Obs.counter "spambayes.prob_cache_fills"

(* Kill switch, read once at startup: with SPAMLAB_NO_PROB_CACHE=1
   every engine scores uncached.  ci.sh uses it to byte-compare cached
   vs uncached experiment output. *)
let disabled =
  match Sys.getenv_opt "SPAMLAB_NO_PROB_CACHE" with
  | Some "1" -> true
  | _ -> false

(* Robinson's f(w), the one copy of the formula in lib/.  Every loop
   below inlines it, so a probability goes from the float registers
   straight into an unboxed array slot: a float returned across a call
   is boxed, and under the dev profile's [-opaque] no call into
   another module is inlined. *)
let[@inline] smoothed_counts (options : Options.t) ~spam ~ham ~nspam ~nham =
  let x = options.unknown_word_prob in
  let s = options.unknown_word_strength in
  let spam_ratio =
    if nspam = 0 then 0.0 else float_of_int spam /. float_of_int nspam
  in
  let ham_ratio =
    if nham = 0 then 0.0 else float_of_int ham /. float_of_int nham
  in
  let denominator = spam_ratio +. ham_ratio in
  if denominator = 0.0 then x
  else
    let ps = spam_ratio /. denominator in
    let n = float_of_int (spam + ham) in
    ((s *. x) +. (n *. ps)) /. (s +. n)

let[@inline] smoothed_id options db id =
  let s = Token_db.slot db id in
  smoothed_counts options
    ~spam:(Token_db.slot_spam db s)
    ~ham:(Token_db.slot_ham db s)
    ~nspam:(Token_db.nspam db) ~nham:(Token_db.nham db)

(* The uncached loop: every probability straight off [db]'s counts,
   the totals read once. *)
let collect_uncached options db ids n out =
  let nspam = Token_db.nspam db and nham = Token_db.nham db in
  for i = 0 to n - 1 do
    let s = Token_db.slot db (Array.unsafe_get ids i) in
    Array.unsafe_set out i
      (smoothed_counts options
         ~spam:(Token_db.slot_spam db s)
         ~ham:(Token_db.slot_ham db s)
         ~nspam ~nham)
  done

(* A shared cache (daemon snapshot, store prior) is dense over the
   intern table — its db covers the table — with [probs.(id)] NaN until
   filled (a smoothed probability is never NaN).  It is single-
   generation: never grown or restamped, valid only while the db stays
   at [created_gen], so every concurrent fill race is benign (a slot
   only ever holds NaN or the one correct probability).

   A private cache is an id table keyed like {!Token_db}'s count
   tables, through the same probe: slot [i] is the id [keys.{2i}] (or
   [vacant]), the generation [keys.{2i+1}] its probability [probs.(i)]
   was computed under; [keys] is an {!Ints} table, off the heap.  A
   stale slot is restamped in place.  The capacity is a power of two
   and doubles before the load passes 1/2, looser than a count table's
   3/4: a scoring loop reads this table once per token, and at 3/4 the
   private-cache [bench classify] rows ran 5-7% slower (in 10 of 12
   alternating pairs). *)
type t = {
  options : Options.t;
  db : Token_db.t;
  shared : bool;
  created_gen : int;
  mutable probs : float array;
  mutable keys : Ints.t;  (* private only; empty until the first fill *)
  mutable mask : int;  (* private slot count - 1, or -1 *)
  mutable size : int;  (* occupied private slots *)
}

let vacant = -1

let create ?(shared = false) options db =
  {
    options;
    db;
    shared;
    created_gen = Token_db.generation db;
    probs = Array.make (if shared then Intern.size () else 0) nan;
    keys = Ints.empty;
    mask = -1;
    size = 0;
  }

let options t = t.options

(* The private slot holding [id], whatever its stamp, or -1.  The probe
   starts at [id land mask]; that slot is tested here, so only an id
   that collided pays the call. *)
let[@inline] locate t id =
  if t.mask < 0 then -1
  else
    let i = id land t.mask in
    let k = A.unsafe_get t.keys (2 * i) in
    if k = id then i
    else if k = vacant then -1
    else
      let i = Token_db.find_slot t.keys ~stride:2 ~mask:t.mask id in
      if A.unsafe_get t.keys (2 * i) = id then i else -1

(* A fresh private slot for [id], which has none. *)
let claim t id =
  if 2 * (t.size + 1) > t.mask + 1 then begin
    let keys = t.keys and probs = t.probs in
    let slots = max 16 (2 * (t.mask + 1)) in
    let mask = slots - 1 in
    let fresh = Ints.make (2 * slots) vacant in
    t.keys <- fresh;
    t.probs <- Array.make slots nan;
    t.mask <- mask;
    for j = 0 to Array.length probs - 1 do
      let k = A.unsafe_get keys (2 * j) in
      if k <> vacant then begin
        let i = Token_db.find_slot fresh ~stride:2 ~mask k in
        A.unsafe_set fresh (2 * i) k;
        A.unsafe_set fresh ((2 * i) + 1) (A.unsafe_get keys ((2 * j) + 1));
        Array.unsafe_set t.probs i (Array.unsafe_get probs j)
      end
    done
  end;
  let i = Token_db.find_slot t.keys ~stride:2 ~mask:t.mask id in
  A.unsafe_set t.keys (2 * i) id;
  t.size <- t.size + 1;
  i

(* A miss: [id]'s probability into [out.(i)] and into its slot.  The
   fill carries the [score.cache.fill] fault site: a transient fault
   writes only [out.(i)] — byte-identical output, the slot just stays
   cold.  Fatal raises; crash exits, as everywhere.  [slot] is [id]'s
   private slot from {!locate} (-1 for none); unused when shared. *)
let fill t id gen slot out i =
  match Spamlab_fault.check "score.cache.fill" with
  | () ->
      Obs.incr c_fills;
      let p = smoothed_id t.options t.db id in
      if t.shared then Array.unsafe_set t.probs id p
      else begin
        let s = if slot >= 0 then slot else claim t id in
        A.unsafe_set t.keys ((2 * s) + 1) gen;
        Array.unsafe_set t.probs s p
      end;
      Array.unsafe_set out i p
  | exception e when Spamlab_fault.is_transient e ->
      Array.unsafe_set out i (smoothed_id t.options t.db id)

(* The cached loop.  The generation and kill-switch checks are hoisted
   out of it and hits are counted once per call.  A private fill can
   replace the table ([claim]), so that loop re-reads it through [t]
   each token. *)
let collect t ids n out =
  let gen = Token_db.generation t.db in
  if disabled || (t.shared && gen <> t.created_gen) then
    collect_uncached t.options t.db ids n out
  else begin
    let hits = ref 0 in
    (if t.shared then begin
       let probs = t.probs in
       let len = Array.length probs in
       for i = 0 to n - 1 do
         let id = Array.unsafe_get ids i in
         if id < len then begin
           let p = Array.unsafe_get probs id in
           if Float.is_nan p then fill t id gen (-1) out i
           else begin
             incr hits;
             Array.unsafe_set out i p
           end
         end
         else Array.unsafe_set out i (smoothed_id t.options t.db id)
       done
     end
     else
       for i = 0 to n - 1 do
         let id = Array.unsafe_get ids i in
         let s = locate t id in
         if s >= 0 && A.unsafe_get t.keys ((2 * s) + 1) = gen then begin
           incr hits;
           Array.unsafe_set out i (Array.unsafe_get t.probs s)
         end
         else fill t id gen s out i
       done);
    if !hits > 0 then Obs.add c_hits !hits
  end

(* The tenant loop.  [db] is a copy-on-write overlay of the prior
   [t.db], so an id it does not hold reads the prior's counts, and
   while the message totals agree too, that id's probability is the
   prior's: read from the shared cache here, filled on a miss.  An id
   the overlay holds scores off [db].  Once the tenant has trained, its
   totals differ and every token scores off [db]. *)
let collect_overlay t db ids n out =
  if
    disabled || (not t.shared)
    || Token_db.generation t.db <> t.created_gen
    || Token_db.nspam db <> Token_db.nspam t.db
    || Token_db.nham db <> Token_db.nham t.db
  then collect_uncached t.options db ids n out
  else begin
    let probs = t.probs in
    let len = Array.length probs in
    let hits = ref 0 in
    for i = 0 to n - 1 do
      let id = Array.unsafe_get ids i in
      if id >= len || Token_db.overlay_mem db id then
        Array.unsafe_set out i (smoothed_id t.options db id)
      else begin
        let p = Array.unsafe_get probs id in
        if Float.is_nan p then fill t id t.created_gen (-1) out i
        else begin
          incr hits;
          Array.unsafe_set out i p
        end
      end
    done;
    if !hits > 0 then Obs.add c_hits !hits
  end
