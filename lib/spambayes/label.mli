(** Ground-truth labels and filter verdicts.

    SpamBayes is a three-way classifier: besides {e ham} and {e spam} it
    emits {e unsure} when the Fisher score falls between the two
    thresholds.  The paper's evaluation treats ham-as-unsure as nearly as
    costly as ham-as-spam (§2.1), so the two must be tracked
    separately. *)

type gold = Ham | Spam
(** Ground truth attached to corpus messages. *)

type verdict = Ham_v | Unsure_v | Spam_v
(** Filter output. *)

val gold_to_string : gold -> string
val verdict_to_string : verdict -> string
val gold_of_string : string -> (gold, string) result

val verdict_agrees : gold -> verdict -> bool
(** True when the verdict matches the gold label exactly (unsure never
    agrees). *)
