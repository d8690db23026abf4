(** CART-style regression tree grown depth-first by SSE reduction under a
    leaf budget, used standalone and as the center selector for {!Rbf}
    networks (Orr et al.). *)

type node =
  | Leaf of { indices : int array; mean : float }
  | Split of { dim : int; thr : float; left : node; right : node }

val fit : ?min_leaf:int -> max_leaves:int -> Dataset.t -> node
(** Split the root at its best split, divide the [max_leaves] budget
    between the children in proportion to their points (at least one
    each), and grow each child the same way. A node stays a leaf when its
    budget is one or no split keeping [min_leaf] (default 3) points per
    side reduces its SSE; thresholds are midpoints between distinct sorted
    values, subsampled per dimension. *)

val predict : node -> float array -> float

val leaves : node -> (int array * float) list
(** Leaf (training-point indices, mean response) pairs. *)
