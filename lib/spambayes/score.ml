let raw db token =
  let nspam = Token_db.nspam db in
  let nham = Token_db.nham db in
  let spam_ratio =
    if nspam = 0 then 0.0
    else float_of_int (Token_db.spam_count db token) /. float_of_int nspam
  in
  let ham_ratio =
    if nham = 0 then 0.0
    else float_of_int (Token_db.ham_count db token) /. float_of_int nham
  in
  let denominator = spam_ratio +. ham_ratio in
  if denominator = 0.0 then None else Some (spam_ratio /. denominator)

let smoothed_counts (options : Options.t) ~spam ~ham ~nspam ~nham =
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

let smoothed (options : Options.t) db token =
  smoothed_counts options
    ~spam:(Token_db.spam_count db token)
    ~ham:(Token_db.ham_count db token)
    ~nspam:(Token_db.nspam db) ~nham:(Token_db.nham db)

let smoothed_id (options : Options.t) db id =
  let s = Token_db.slot db id in
  smoothed_counts options
    ~spam:(Token_db.slot_spam db s)
    ~ham:(Token_db.slot_ham db s)
    ~nspam:(Token_db.nspam db) ~nham:(Token_db.nham db)

let strength options db token =
  Float.abs (smoothed options db token -. 0.5)

let is_significant options db token =
  strength options db token >= options.minimum_prob_strength
