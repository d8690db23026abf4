(** CART-style regression tree grown depth-first by SSE reduction under a
    leaf budget, used standalone and as the center selector for {!Rbf}
    networks (Orr et al.).

    Each node's best split is computed at most once per dataset, in a memo
    that every budget's tree is read from: the budget decides only whether
    a node is split, and the trees of a list of budgets are prunings of the
    largest one. *)

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

val fit_grid : ?min_leaf:int -> max_leaves:int list -> Dataset.t -> node list
(** One tree per budget, in the order given, each equal to {!fit} with that
    budget, all read from one memo of splits: the cost is that of the
    largest budget's tree. Leaves of different trees may share their
    [indices] arrays. *)

val predict : node -> float array -> float

val leaves : node -> (int array * float) list
(** Leaf (training-point indices, mean response) pairs. *)
