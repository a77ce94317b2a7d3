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

let smoothed_id (options : Options.t) db id =
  let s = Token_db.slot db id in
  smoothed_counts options
    ~spam:(Token_db.slot_spam db s)
    ~ham:(Token_db.slot_ham db s)
    ~nspam:(Token_db.nspam db) ~nham:(Token_db.nham db)
