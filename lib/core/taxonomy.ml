type influence = Causative | Exploratory
type violation = Integrity | Availability
type specificity = Targeted | Indiscriminate

type t = {
  influence : influence;
  violation : violation;
  specificity : specificity;
}

let dictionary_attack =
  { influence = Causative; violation = Availability;
    specificity = Indiscriminate }

let influence_to_string = function
  | Causative -> "Causative"
  | Exploratory -> "Exploratory"

let violation_to_string = function
  | Integrity -> "Integrity"
  | Availability -> "Availability"

let specificity_to_string = function
  | Targeted -> "Targeted"
  | Indiscriminate -> "Indiscriminate"

let describe t =
  Printf.sprintf "%s %s %s attack"
    (influence_to_string t.influence)
    (violation_to_string t.violation)
    (specificity_to_string t.specificity)
