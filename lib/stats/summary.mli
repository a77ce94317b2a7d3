(** Descriptive statistics for experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val std_dev : float array -> float
(** Square root of the unbiased sample variance (n−1 denominator); 0
    for arrays of length 1.  @raise Invalid_argument on an empty
    array. *)

val median : float array -> float
(** Median (average of middle two for even lengths).  Does not modify the
    input.  @raise Invalid_argument on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] for q in [0,1], linear interpolation between order
    statistics (type-7, the R default). *)

val min_max : float array -> float * float
