(** Special functions needed by the SpamBayes scoring machinery.

    OCaml ships no scientific library, so the chi-square distribution
    function used by Fisher's method (paper Eq. 4) is built here from
    first principles: Lanczos log-gamma and the regularized incomplete
    gamma function (series expansion for [x < a+1], Lentz continued
    fraction otherwise).

    Accuracy target: at least 10 significant digits over the argument
    ranges the filter exercises, verified against high-precision reference
    values in the test suite. *)

val log_gamma : float -> float
(** [log_gamma x] is ln Γ(x) for [x > 0].
    @raise Invalid_argument if [x <= 0]. *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma function
    P(a,x) = γ(a,x)/Γ(a), for [a > 0], [x >= 0]. *)

val gamma_q : float -> float -> float
(** [gamma_q a x] = 1 − P(a,x), the regularized upper incomplete gamma
    function, computed directly (not as [1. -. gamma_p]) where that is
    more accurate. *)

val chi2_sf : df:int -> float -> float
(** [chi2_sf ~df x] is the chi-square survival function 1 − CDF with
    [df] degrees of freedom evaluated at [x], computed to full relative
    accuracy in the upper tail; 1 for [x <= 0].
    @raise Invalid_argument if [df <= 0]. *)
