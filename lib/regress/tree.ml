(** CART-style regression tree, used both standalone and to pick RBF centers
    (Orr et al., "Combining Regression Trees and Radial Basis Function
    Networks" — the paper's reference [12]).

    Growth is depth-first under a leaf budget: a leaf is split at its best
    (dimension, threshold) by SSE reduction, its budget is divided between
    the two children in proportion to their points (each keeps at least
    one leaf), and each child is grown the same way. A leaf stays a leaf
    once its budget is one, or when no admissible split ([min_leaf] points
    per side) reduces its SSE. Thresholds are midpoints between distinct
    sorted values, subsampled to at most [max_thresholds] per dimension. *)

type node =
  | Leaf of { indices : int array; mean : float }
  | Split of { dim : int; thr : float; left : node; right : node }

let max_thresholds = 8

let leaf_of (d : Dataset.t) indices =
  let mean =
    Emc_util.Stats.mean (Array.map (fun i -> d.Dataset.y.(i)) indices)
  in
  Leaf { indices; mean }

let sse_of (d : Dataset.t) indices =
  let ys = Array.map (fun i -> d.Dataset.y.(i)) indices in
  let m = Emc_util.Stats.mean ys in
  Array.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 ys

(* best split of a leaf: returns (sse_reduction, dim, thr, left_idx, right_idx) *)
let best_split (d : Dataset.t) ~min_leaf indices =
  let base = sse_of d indices in
  let k = Dataset.dims d in
  let best = ref None in
  for dim = 0 to k - 1 do
    let vals = Array.map (fun i -> d.Dataset.x.(i).(dim)) indices in
    let uniq = List.sort_uniq compare (Array.to_list vals) in
    let thresholds =
      let mids =
        let rec go = function a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: go rest | _ -> [] in
        go uniq
      in
      let m = List.length mids in
      if m <= max_thresholds then mids
      else
        (* evenly subsample *)
        List.filteri (fun i _ -> i mod ((m / max_thresholds) + 1) = 0) mids
    in
    List.iter
      (fun thr ->
        let l = Array.of_list (List.filter (fun i -> d.Dataset.x.(i).(dim) <= thr)
                                 (Array.to_list indices)) in
        let r = Array.of_list (List.filter (fun i -> d.Dataset.x.(i).(dim) > thr)
                                 (Array.to_list indices)) in
        if Array.length l >= min_leaf && Array.length r >= min_leaf then begin
          let red = base -. sse_of d l -. sse_of d r in
          match !best with
          | Some (r', _, _, _, _) when r' >= red -> ()
          | _ -> best := Some (red, dim, thr, l, r)
        end)
      thresholds
  done;
  !best

let fit ?(min_leaf = 3) ~max_leaves (d : Dataset.t) =
  let rec grow indices budget =
    if budget <= 1 then leaf_of d indices
    else
      match best_split d ~min_leaf indices with
      | Some (red, dim, thr, l, r) when red > 1e-12 ->
          let nl = Array.length l and nr = Array.length r in
          let bl = max 1 (budget * nl / (nl + nr)) in
          let br = max 1 (budget - bl) in
          Split { dim; thr; left = grow l bl; right = grow r br }
      | _ -> leaf_of d indices
  in
  grow (Array.init (Dataset.size d) Fun.id) max_leaves

let rec predict node x =
  match node with
  | Leaf { mean; _ } -> mean
  | Split { dim; thr; left; right } -> if x.(dim) <= thr then predict left x else predict right x

let rec leaves = function
  | Leaf { indices; mean } -> [ (indices, mean) ]
  | Split s -> leaves s.left @ leaves s.right
