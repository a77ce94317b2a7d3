module Label = Spamlab_spambayes.Label

type t = { counts : int array array }
(* counts.(gold).(verdict): gold 0=ham 1=spam; verdict 0=ham 1=unsure
   2=spam. *)

let create () = { counts = Array.init 2 (fun _ -> Array.make 3 0) }

let gold_index = function Label.Ham -> 0 | Label.Spam -> 1

let verdict_index = function
  | Label.Ham_v -> 0
  | Label.Unsure_v -> 1
  | Label.Spam_v -> 2

let add t gold verdict =
  let g = gold_index gold in
  let v = verdict_index verdict in
  t.counts.(g).(v) <- t.counts.(g).(v) + 1

let cells t =
  [|
    t.counts.(0).(0); t.counts.(0).(1); t.counts.(0).(2);
    t.counts.(1).(0); t.counts.(1).(1); t.counts.(1).(2);
  |]

let of_cells cells =
  if Array.length cells <> 6 || Array.exists (fun c -> c < 0) cells then None
  else begin
    let t = create () in
    for g = 0 to 1 do
      for v = 0 to 2 do
        t.counts.(g).(v) <- cells.((g * 3) + v)
      done
    done;
    Some t
  end

let merge a b =
  let out = create () in
  for g = 0 to 1 do
    for v = 0 to 2 do
      out.counts.(g).(v) <- a.counts.(g).(v) + b.counts.(g).(v)
    done
  done;
  out

let count t gold verdict = t.counts.(gold_index gold).(verdict_index verdict)

let row_total t g = Array.fold_left ( + ) 0 t.counts.(g)
let total_ham t = row_total t 0
let total_spam t = row_total t 1

let rate numerator denominator =
  if denominator = 0 then 0.0
  else float_of_int numerator /. float_of_int denominator

let ham_as_spam_rate t = rate t.counts.(0).(2) (total_ham t)
let ham_as_unsure_rate t = rate t.counts.(0).(1) (total_ham t)

let ham_misclassified_rate t =
  rate (t.counts.(0).(1) + t.counts.(0).(2)) (total_ham t)

let spam_as_ham_rate t = rate t.counts.(1).(0) (total_spam t)
let spam_as_unsure_rate t = rate t.counts.(1).(1) (total_spam t)

let spam_misclassified_rate t =
  rate (t.counts.(1).(0) + t.counts.(1).(1)) (total_spam t)
