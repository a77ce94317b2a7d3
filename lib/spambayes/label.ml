type gold = Ham | Spam
type verdict = Ham_v | Unsure_v | Spam_v

let gold_to_string = function Ham -> "ham" | Spam -> "spam"

let verdict_to_string = function
  | Ham_v -> "ham"
  | Unsure_v -> "unsure"
  | Spam_v -> "spam"

let gold_of_string = function
  | "ham" -> Ok Ham
  | "spam" -> Ok Spam
  | s -> Error (Printf.sprintf "unknown gold label %S" s)

let verdict_agrees gold verdict =
  match (gold, verdict) with
  | Ham, Ham_v | Spam, Spam_v -> true
  | Ham, (Unsure_v | Spam_v) | Spam, (Ham_v | Unsure_v) -> false
