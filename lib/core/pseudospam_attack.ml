open Spamlab_stats

type plan = {
  campaign_words : string list;
  camouflage_words : string list;
  emails : Spamlab_email.Message.t list;
}

let craft rng ~campaign ~camouflage ~camouflage_fraction ~count =
  if Array.length campaign = 0 then
    invalid_arg "Pseudospam_attack.craft: empty campaign vocabulary";
  if camouflage_fraction < 0.0 || camouflage_fraction >= 1.0 then
    invalid_arg "Pseudospam_attack.craft: camouflage_fraction outside [0,1)";
  if count < 0 then invalid_arg "Pseudospam_attack.craft: negative count";
  let campaign_words = Array.to_list campaign in
  let n_campaign = List.length campaign_words in
  (* camouflage / (campaign + camouflage) = fraction *)
  let n_camouflage =
    int_of_float
      (Float.round
         (camouflage_fraction /. (1.0 -. camouflage_fraction)
         *. float_of_int n_campaign))
  in
  let n_camouflage = min n_camouflage (Array.length camouflage) in
  let camouflage_words =
    if n_camouflage = 0 then []
    else
      Array.to_list (Rng.sample_without_replacement rng n_camouflage camouflage)
  in
  let words = campaign_words @ camouflage_words in
  let emails = List.init count (fun _ -> Attack_email.make ~words) in
  { campaign_words; camouflage_words; emails }
