(** Multivariate Adaptive Regression Splines (Friedman '91; paper §4.2).

    Basis functions are products of hinge functions [max(0, ±(x_d − t))] up
    to degree 2 (the paper's two-factor scope). The forward pass greedily
    adds the reflected hinge pair that most reduces training SSE over every
    (parent basis, unused dimension, data knot) candidate; the backward pass
    prunes terms by GCV and refits the best subset. The result is both
    accurate and interpretable: [terms] lists every surviving basis function
    with its coefficient, which is what the paper's Table 4 reads off. *)

val fit : ?max_terms:int -> ?max_degree:int -> ?names:string array -> Dataset.t -> Model.t

(** {2 Forward-pass kernels}

    The loops of the forward pass, exposed so that tests can hold them bit
    for bit to reference copies. Each reads and writes unchecked after an
    entry check that raises [Invalid_argument] when an array is too short
    for the indices it is given. *)

val dot : float array -> float array -> float
(** [dot a b] adds [a.(r) *. b.(r)] over the rows of [a] in order; [b]
    has at least as many. *)

type normal = {
  y : float array;  (** the response, one entry per row *)
  cols : float array array;  (** [cap] columns of one entry per row *)
  gram : float array array;  (** [gram.(i).(j)], [j <= i], is [cols.(i) · cols.(j)] *)
  xty : float array;  (** [xty.(i)] is [cols.(i) · y] *)
  sys : Emc_linalg.Mat.t;  (** the lower triangle of the system last solved *)
  chol : Emc_linalg.Mat.t;  (** its Cholesky factor *)
  w : float array;  (** its weights *)
  p : float array;  (** its predictions, one per row *)
}
(** Room for [cap] columns and their normal equations. *)

val normal : cap:int -> float array -> normal
(** [normal ~cap y]: every column, Gram entry and weight zero. *)

val store_pair : normal -> float array -> parent:int -> knot:float -> at:int -> unit
(** [store_pair ne xd ~parent ~knot ~at] stores the hinge pair
    [cols.(parent) · max(0, ±(xd − knot))] in columns [at] and [at + 1],
    [xd] holding one dimension of the data, and their Gram entries with
    columns [0 .. at + 1] and with [y]. *)

val solve : normal -> from:int -> int array -> float
(** [solve ne ~from idx] solves least squares on the ascending columns
    [idx], building rows [from ..] of the system and of its factor (rows
    below [from] must be those of an earlier solve with the same leading
    columns). Leaves the weights in [ne.w] and the predictions in [ne.p]
    and returns the training SSE; when the system is not positive
    definite, the weights are zero and the SSE is [infinity]. *)
