(** Dense row-major matrices over [float].

    Sized for the regression pipeline: a few hundred rows (design points) by a
    few hundred columns (model terms). All operations are straightforward
    O(n^3)-or-better dense algorithms with partial pivoting where relevant.
    The LU and Cholesky loops index the flat array through row offsets. The
    Cholesky loop factors two rows per pass, and it can resume at a row of a
    partly computed factor: MARS extends its accepted columns' factor by
    each candidate's rows instead of factoring anew. A blocked loop shares
    loads between sums, but every sum adds the products of a one-entry loop
    in its order, so no result depends on the blocking. *)

type t

val create : int -> int -> t
(** [create r c] is the [r × c] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_rows : float array array -> t
(** Copies its input; rows must be non-empty and of equal length. *)

val rows : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val transpose : t -> t
val mul : t -> t -> t
val add : t -> t -> t
val scale : float -> t -> t
val mul_vec : t -> float array -> float array

val tmul_vec : t -> float array -> float array
(** [tmul_vec x v] is [xᵀv] without building the transpose: each entry adds
    its products over the rows of [x] in order, so it has the bits of
    [mul_vec (transpose x) v]. *)

val gram : t -> t
(** [gram x] is [xᵀx], computed symmetrically. Each entry adds its products
    over the rows of [x] in order. *)

val lu_det : t -> float
(** Determinant via LU with partial pivoting. Square only. *)

val log_det : t -> float
(** Log of |det| for a square matrix; [neg_infinity] when singular. Preferred
    over {!lu_det} inside D-optimal search, where determinants overflow. *)

val solve : t -> float array -> float array
(** [solve a b] solves the square system [a x = b] by LU with partial
    pivoting. Raises [Failure] on a (numerically) singular matrix. *)

val inverse : t -> t
(** Raises [Failure] on a singular matrix. *)

val cholesky : t -> t
(** Lower-triangular Cholesky factor of a symmetric positive-definite matrix:
    {!cholesky_rows} from row 0. Reads the lower triangle only. Raises
    [Failure] if the matrix is not positive definite. *)

val cholesky_rows : t -> t -> from:int -> upto:int -> unit
(** [cholesky_rows a l ~from ~upto] writes rows [from .. upto-1] of the
    Cholesky factor of [a]'s leading [upto × upto] block into the lower
    triangle of [l], reading the factor's rows [0 .. from-1] from [l]. Row i
    of a factor depends only on rows [<= i] of the matrix, so the rows it
    writes have the bits of a factorization from row 0. Rows of [l] outside
    [from .. upto-1] are not written. [a] and [l] are square of one size.
    Raises [Failure] if the block is not positive definite; the rows before
    the failing one and the failing row's entries left of its diagonal are
    then written, and the row after it, which the loop factors in the same
    pass, may hold entries too. *)

val cholesky_solve : t -> int -> float array -> float array -> unit
(** [cholesky_solve l n b x] solves [L Lᵀ x = b] for the leading [n × n]
    block [L] of a Cholesky factor [l], writing [x.(0 .. n-1)]. [x] may be
    [b]. *)

val solve_spd : t -> float array -> float array
(** Solve an SPD system via Cholesky. *)

val lstsq : t -> float array -> float array
(** [lstsq a b] is the minimum-residual solution of the (possibly
    overdetermined) system [a x ≈ b], via Householder QR with column checks.
    Rank-deficient columns receive coefficient 0. *)

val equal : ?eps:float -> t -> t -> bool
