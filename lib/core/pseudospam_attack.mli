(** The ham-labeled attack the paper's §2.2 sets aside: "using
    ham-labeled attack emails could enable more powerful attacks that
    place spam in a user's inbox."

    This is a {e Causative Integrity} attack.  The attacker sends
    innocuous-looking messages ("pseudospam") whose bodies mix
    plausible legitimate prose with the vocabulary of a {e future} spam
    campaign.  If the victim's pipeline trains them as ham (they read
    like newsletters and contain no payload, so manual labelers often
    do), the campaign tokens acquire hammy scores and the later real
    campaign slides into the inbox. *)

type plan = {
  campaign_words : string list;
      (** The future campaign's vocabulary being whitewashed. *)
  camouflage_words : string list;
      (** Innocent filler included to make the emails look legitimate. *)
  emails : Spamlab_email.Message.t list;
}

val craft :
  Spamlab_stats.Rng.t ->
  campaign:string array ->
  camouflage:string array ->
  camouflage_fraction:float ->
  count:int ->
  plan
(** [craft rng ~campaign ~camouflage ~camouflage_fraction ~count] builds
    [count] identical pseudospam emails whose word set is the whole
    campaign vocabulary plus enough camouflage words that they make up
    [camouflage_fraction] of each email.  @raise Invalid_argument if
    the campaign is empty, the fraction is outside [0,1), or [count < 0]. *)

