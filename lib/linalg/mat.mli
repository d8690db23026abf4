(** Dense row-major matrices over [float].

    Sized for the regression pipeline: a few hundred rows (design points) by a
    few hundred columns (model terms). All operations are straightforward
    O(n^3)-or-better dense algorithms with partial pivoting where relevant. *)

type t

val create : int -> int -> t
(** [create r c] is the r-by-c zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_rows : float array array -> t
(** Copies its input; rows must be non-empty and of equal length. *)

val copy : t -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val row : t -> int -> float array
(** Fresh copy of a row. *)

val col : t -> int -> float array

val transpose : t -> t
val mul : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul_vec : t -> float array -> float array

val gram : t -> t
(** [gram x] is [xᵀx], computed symmetrically. *)

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
(** Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
    Raises [Failure] if the matrix is not positive definite. *)

val solve_spd : t -> float array -> float array
(** Solve an SPD system via Cholesky. *)

val lstsq : t -> float array -> float array
(** [lstsq a b] is the minimum-residual solution of the (possibly
    overdetermined) system [a x ≈ b], via Householder QR with column checks.
    Rank-deficient columns receive coefficient 0. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
