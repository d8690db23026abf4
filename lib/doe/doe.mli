(** Design of experiments (paper §3).

    The design space is a grid: each predictor variable has a finite set of
    coded levels in [-1,1]. Candidate points come from Latin hypercube
    sampling; D-optimal subsets are selected with a modified Fedorov
    exchange maximizing det(XᵀX) of the main-effects model matrix. Larger
    determinant ≈ lower variance of fitted coefficients — the paper's
    rationale for D-optimal designs — and the exchange structure makes
    designs extensible, as required by the Figure-1 iteration. *)

type space = {
  names : string array;
  levels : float array array;  (** admissible coded values per dimension *)
}

val dims : space -> int

val expand_main : float array -> float array
(** [expand_main x] is the main-effects model row [1; x1; ...; xk]. *)

val random_point : Emc_util.Rng.t -> space -> float array
(** Uniform draw from the level grid. *)

val random_design : Emc_util.Rng.t -> space -> int -> float array array

val lhs : Emc_util.Rng.t -> space -> int -> float array array
(** Latin hypercube sample: each dimension's column is a stratified
    permutation of its levels, giving better marginal coverage than iid
    draws. *)

val log_det_information : float array array -> float
(** The D-criterion: log det of XᵀX of the main-effects expansion. Bigger
    is better. *)

val d_optimal :
  ?sweeps:int ->
  ?fixed:float array array ->
  Emc_util.Rng.t ->
  space ->
  n:int ->
  candidates:float array array ->
  float array array
(** Modified Fedorov exchange: starting from a random subset of
    [candidates], repeatedly apply the best improving point exchange,
    [sweeps] passes over the design. [fixed] rows (default none) are
    unexchangeable but contribute to the information matrix, so the [n]
    returned rows D-optimally augment an existing design. *)

val generate : ?sweeps:int -> ?cand_factor:int -> Emc_util.Rng.t -> space -> n:int
  -> float array array
(** One-call design generation: LHS candidates ([cand_factor × n] of them
    plus a random batch), then {!d_optimal}. *)

val augment :
  ?sweeps:int ->
  ?cand_factor:int ->
  Emc_util.Rng.t ->
  space ->
  design:float array array ->
  n_extra:int ->
  float array array
(** [augment rng space ~design ~n_extra] picks [n_extra] fresh points that
    maximize the D-criterion of [design ++ extra] with [design] held fixed —
    the design-extensibility step of the paper's Figure-1 iteration. Returns
    only the new rows. *)
