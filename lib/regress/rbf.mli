(** Radial basis function networks with regression-tree center selection
    (paper §4.3; Orr et al., the paper's reference [12]).

    A regression tree partitions the design space into regions of roughly
    uniform response; the training point nearest each leaf centroid becomes
    an RBF center with a radius set by the leaf's spatial spread; output
    weights are ridge-regularized least squares; the network size is chosen
    by BIC (§4.4) over a grid of sizes whose trees are all read from one
    memo of splits ({!Tree.fit_grid}): the budget only decides which nodes
    are split, so each grid tree is a pruning of the largest. The paper's
    printed "multiquad" kernel formula is imaginary for distant inputs — an
    evident typo for the standard multiquadric √(d²/r² + 1), which is the
    default here (it was the paper's most accurate kernel). *)

type kernel = Repr.kernel = Gaussian | Multiquadric | InverseMultiquadric

val kernel_name : kernel -> string

val eval_kernel : kernel -> r:float -> float -> float
(** [eval_kernel k ~r d2] evaluates the kernel at squared distance [d2] with
    radius [r]; all kernels are 1 at the center. *)

val fit : ?kernel:kernel -> ?size_grid:int list -> Dataset.t -> Model.t
(** The returned model's [terms] list the bias and every center/weight pair
    (weights in response units), and its [repr] serializes the full network
    (centers, radii, weights, response transform). *)
