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
    returned rows D-optimally augment an existing design. Each accepted
    exchange adds one to the [doe.exchanges] counter. *)

(** {2 Exchange kernels}

    The two loops of an exchange, exposed so that tests can hold them bit
    for bit to reference copies. Both read and write unchecked after an
    entry check that raises [Invalid_argument] when an array is too short
    for its indices. *)

val project :
  p:int -> minv:float array -> cands:float array array -> mv:float array -> d:float array -> unit
(** [project ~p ~minv ~cands ~mv ~d] writes each candidate row's [M⁻¹x_j]
    into [mv] (row-major, [p] per candidate) and [x_jᵀM⁻¹x_j] into [d.(j)],
    for the row-major [p × p] inverse [minv]. Every entry adds its products
    over the columns in order, as {!Emc_linalg.Mat.mul_vec} and a dot
    product do. *)

val best_exchange : p:int -> mv:float array -> d:float array -> float array -> float -> int
(** [best_exchange ~p ~mv ~d xi di] is the candidate (an index into [d])
    whose exchange with the design row [xi], where [di = xiᵀM⁻¹xi], has
    the largest Fedorov gain above 1e-9, the first of equal gains, or -1
    when no gain is that large. *)

val generate : ?sweeps:int -> ?cand_factor:int -> Emc_util.Rng.t -> space -> n:int
  -> float array array
(** One-call design generation: LHS candidates ([cand_factor × n] of them
    plus a random batch), then {!d_optimal}. Raises [Invalid_argument] when
    [n < 1]. *)

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
    only the new rows. Raises [Invalid_argument] when [n_extra < 1]. *)
