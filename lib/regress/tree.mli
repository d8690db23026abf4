(** CART-style regression tree: best-first growth by SSE reduction, used
    standalone and as the center selector for {!Rbf} networks (Orr et al.). *)

type node =
  | Leaf of { indices : int array; mean : float }
  | Split of { dim : int; thr : float; left : node; right : node }

val fit : ?min_leaf:int -> max_leaves:int -> Dataset.t -> node
(** Grow until [max_leaves] or no split keeps [min_leaf] (default 3) points
    per side; thresholds are midpoints between distinct sorted values,
    subsampled per dimension. *)

val predict : node -> float array -> float

val leaves : node -> (int array * float) list
(** Leaf (training-point indices, mean response) pairs. *)
