(** The attack taxonomy of Barreno et al. (§3.1): three orthogonal axes
    classifying attacks against learning systems.

    The paper's attacks are all {e Causative Availability} attacks —
    they poison training data to raise false positives — in both
    Indiscriminate (dictionary) and Targeted (focused) forms. *)

type influence =
  | Causative  (** Attacker influences the training data. *)
  | Exploratory  (** Attacker only probes the fixed classifier. *)

type violation =
  | Integrity  (** False negatives: spam slips through. *)
  | Availability  (** False positives: ham is filtered away. *)

type specificity =
  | Targeted  (** Degrade performance on one type of email. *)
  | Indiscriminate  (** Degrade performance broadly. *)

type t = {
  influence : influence;
  violation : violation;
  specificity : specificity;
}

val dictionary_attack : t
(** Causative / Availability / Indiscriminate. *)

val describe : t -> string
