(** CART-style regression tree, used both standalone and to pick RBF centers
    (Orr et al., "Combining Regression Trees and Radial Basis Function
    Networks" — the paper's reference [12]).

    Best-first growth: repeatedly split the leaf whose best (dimension,
    threshold) split yields the largest SSE reduction, until [max_leaves] or
    no admissible split remains ([min_leaf] points per side). Thresholds are
    midpoints between distinct sorted values, subsampled to at most
    [max_thresholds] per dimension. *)

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
  let all = Array.init (Dataset.size d) Fun.id in
  (* working set of leaves with their best candidate splits *)
  let root = leaf_of d all in
  let rec count_leaves = function
    | Leaf _ -> 1
    | Split s -> count_leaves s.left + count_leaves s.right
  in
  let rec grow node budget =
    if budget <= 1 then node
    else
      match node with
      | Leaf { indices; _ } -> (
          match best_split d ~min_leaf indices with
          | Some (red, dim, thr, l, r) when red > 1e-12 ->
              let nl = Array.length l and nr = Array.length r in
              (* allocate remaining budget proportionally *)
              let bl = max 1 (budget * nl / (nl + nr)) in
              let br = max 1 (budget - bl) in
              Split { dim; thr; left = grow (leaf_of d l) bl; right = grow (leaf_of d r) br }
          | _ -> node)
      | Split s ->
          Split { s with left = grow s.left (budget / 2); right = grow s.right (budget - (budget / 2)) }
  in
  let t = grow root max_leaves in
  ignore (count_leaves t);
  t

let rec predict node x =
  match node with
  | Leaf { mean; _ } -> mean
  | Split { dim; thr; left; right } -> if x.(dim) <= thr then predict left x else predict right x

let rec leaves = function
  | Leaf { indices; mean } -> [ (indices, mean) ]
  | Split s -> leaves s.left @ leaves s.right
