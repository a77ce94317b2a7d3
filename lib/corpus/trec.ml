open Spamlab_stats
module Label = Spamlab_spambayes.Label

type labeled = Label.gold * Spamlab_email.Message.t

let generate ?pool config rng ~size ~spam_fraction =
  if size < 0 then invalid_arg "Trec.generate: negative size";
  if spam_fraction < 0.0 || spam_fraction > 1.0 then
    invalid_arg "Trec.generate: spam_fraction outside [0,1]";
  let nspam =
    int_of_float (Float.round (float_of_int size *. spam_fraction))
  in
  (* Each message draws from its own child stream, pre-split by index
     from a single advance of the caller's rng.  Message [i] is a pure
     function of (root state, i), so construction can fan over the
     domain pool and the corpus is identical at every jobs count. *)
  let root = Rng.split rng in
  let build i =
    let child = Rng.split_indexed root i in
    if i < nspam then (Label.Spam, Generator.spam config child)
    else (Label.Ham, Generator.ham config child)
  in
  let messages =
    match pool with
    | Some p ->
        Spamlab_parallel.Pool.map_array p build (Array.init size Fun.id)
    | None -> Array.init size build
  in
  Rng.shuffle rng messages;
  messages

let select_label want corpus =
  let n =
    Array.fold_left
      (fun n (label, _) -> if label = want then n + 1 else n)
      0 corpus
  in
  let out = Array.make n (snd corpus.(0)) in
  let j = ref 0 in
  Array.iter
    (fun (label, msg) ->
      if label = want then begin
        out.(!j) <- msg;
        incr j
      end)
    corpus;
  out

let ham_only corpus =
  if Array.length corpus = 0 then [||] else select_label Label.Ham corpus

let spam_only corpus =
  if Array.length corpus = 0 then [||] else select_label Label.Spam corpus

let counts corpus =
  Array.fold_left
    (fun (ham, spam) (label, _) ->
      match label with
      | Label.Ham -> (ham + 1, spam)
      | Label.Spam -> (ham, spam + 1))
    (0, 0) corpus

let to_mbox_files ~ham_path ~spam_path corpus =
  Spamlab_email.Mbox.write_file ham_path
    (Array.to_list (ham_only corpus));
  Spamlab_email.Mbox.write_file spam_path
    (Array.to_list (spam_only corpus))
