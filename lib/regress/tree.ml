(** CART-style regression tree, used both standalone and to pick RBF centers
    (Orr et al., "Combining Regression Trees and Radial Basis Function
    Networks" — the paper's reference [12]).

    Growth is depth-first under a leaf budget: a leaf is split at its best
    (dimension, threshold) by SSE reduction, its budget is divided between
    the two children in proportion to their points (each keeps at least
    one leaf), and each child is grown the same way. A leaf stays a leaf
    once its budget is one, or when no admissible split ([min_leaf] points
    per side) reduces its SSE. Thresholds are midpoints between distinct
    sorted values, subsampled to at most [max_thresholds] per dimension.

    Split memo. A node's best split depends only on its points; its budget
    decides only whether the node is split at all. So each node's split is
    computed at most once, in a memo expanded lazily from the root, and a
    budget's tree is read from the memo by dividing the budget as above.
    The trees of several budgets are prunings of one tree: a child's share
    [max 1 (b·nl/n)] and its sibling's [b − share] never shrink as the
    parent's budget b grows, so the memo a list of budgets expands is the
    largest budget's tree, and {!fit_grid} costs one tree, not one per
    budget. {!fit} is the one-budget case.

    Candidate splits are scored in buffers made once per memo. Each rule
    that decides bits is kept: means are {!Emc_util.Stats.mean}'s Kahan sum
    and SSEs one fold of squared deviations, both over points in index
    order; distinct values come in [Float.compare] order, thresholds are
    [(a +. b) /. 2.0] of neighbours, every [(m / 8 + 1)]-th when there are
    more than 8; a point goes left when [x <= thr] and right when
    [x > thr], so a NaN coordinate goes to neither side; a later candidate
    replaces the best only when the best's reduction is not [>=] its own;
    and a node splits only when the best reduction exceeds 1e-12. *)

type node =
  | Leaf of { indices : int array; mean : float }
  | Split of { dim : int; thr : float; left : node; right : node }

let max_thresholds = 8

(* Buffers and per-dimension views shared by every node of one memo. *)
type scratch = {
  y : float array;
  min_leaf : int;
  cols : float array array;  (** [cols.(dim).(i)] is point i's coordinate *)
  order : int array array;  (** all points by [Float.compare] on each dimension *)
  member : bool array;  (** the points of the node being split *)
  lefts : float array;  (** one candidate's left responses, in index order *)
  rights : float array;
  mids : float array;  (** one dimension's midpoints *)
}

(* One node of the memo: its points in index order, the leaf it is when
   not split, and its best split, computed when a budget above one first
   asks for it. *)
type memo = { indices : int array; leaf : node; cut : cut option Lazy.t }
and cut = { dim : int; thr : float; left : memo; right : memo }

(* The SSE of buf.(0 .. n-1): Stats.mean's Kahan sum and division, then
   one fold of squared deviations. Only whether it is NaN matters, never
   which NaN, so its own copy of the sum keeps every bit that decides a
   split. *)
let sse buf n =
  let m =
    if n = 0 then 0.0
    else begin
      let s = ref 0.0 and c = ref 0.0 in
      for p = 0 to n - 1 do
        let y = buf.(p) -. !c in
        let t = !s +. y in
        c := t -. !s -. y;
        s := t
      done;
      !s /. float_of_int n
    end
  in
  let acc = ref 0.0 in
  for p = 0 to n - 1 do
    let v = buf.(p) -. m in
    acc := !acc +. (v *. v)
  done;
  !acc

let scratch ~min_leaf (d : Dataset.t) =
  let n = Dataset.size d in
  let cols =
    Array.init (Dataset.dims d) (fun dim -> Array.init n (fun i -> d.Dataset.x.(i).(dim)))
  in
  let order =
    Array.map
      (fun col ->
        let o = Array.init n Fun.id in
        Array.sort (fun a b -> Float.compare col.(a) col.(b)) o;
        o)
      cols
  in
  { y = d.Dataset.y; min_leaf; cols; order; member = Array.make n false;
    lefts = Array.make n 0.0; rights = Array.make n 0.0; mids = Array.make n 0.0 }

(* A leaf's mean is stored, so it comes from Stats.mean itself: ocamlopt
   may order the operands of a commutative add either way, and with two
   NaN operands that choice picks the NaN that results. *)
let rec memo s indices =
  let mean = Emc_util.Stats.mean (Array.map (fun i -> s.y.(i)) indices) in
  { indices; leaf = Leaf { indices; mean }; cut = lazy (best_cut s indices) }

(* The node's best admissible split if it reduces the SSE, else None. *)
and best_cut s indices =
  let n = Array.length indices in
  let y = s.y in
  for p = 0 to n - 1 do
    s.lefts.(p) <- y.(indices.(p));
    s.member.(indices.(p)) <- true
  done;
  let base = sse s.lefts n in
  let found = ref false and best_red = ref 0.0 and best_dim = ref 0 and best_thr = ref 0.0 in
  for dim = 0 to Array.length s.cols - 1 do
    let col = s.cols.(dim) and order = s.order.(dim) in
    (* midpoints between neighbouring distinct values of the node's points *)
    let m = ref 0 and prev = ref 0.0 and started = ref false in
    for q = 0 to Array.length order - 1 do
      let i = order.(q) in
      if s.member.(i) then begin
        let v = col.(i) in
        if not !started then begin
          started := true;
          prev := v
        end
        else if Float.compare v !prev <> 0 then begin
          s.mids.(!m) <- (!prev +. v) /. 2.0;
          incr m;
          prev := v
        end
      end
    done;
    let m = !m in
    let step = if m <= max_thresholds then 1 else (m / max_thresholds) + 1 in
    let t = ref 0 in
    while !t < m do
      let thr = s.mids.(!t) in
      let nl = ref 0 and nr = ref 0 in
      for p = 0 to n - 1 do
        let i = indices.(p) in
        let v = col.(i) in
        if v <= thr then begin
          s.lefts.(!nl) <- y.(i);
          incr nl
        end
        else if v > thr then begin
          s.rights.(!nr) <- y.(i);
          incr nr
        end
      done;
      if !nl >= s.min_leaf && !nr >= s.min_leaf then begin
        let red = base -. sse s.lefts !nl -. sse s.rights !nr in
        if not (!found && !best_red >= red) then begin
          found := true;
          best_red := red;
          best_dim := dim;
          best_thr := thr
        end
      end;
      t := !t + step
    done
  done;
  for p = 0 to n - 1 do
    s.member.(indices.(p)) <- false
  done;
  if !found && !best_red > 1e-12 then begin
    let dim = !best_dim and thr = !best_thr in
    let col = s.cols.(dim) in
    let side keep = Array.of_list (List.filter (fun i -> keep col.(i)) (Array.to_list indices)) in
    let l = side (fun v -> v <= thr) and r = side (fun v -> v > thr) in
    Some { dim; thr; left = memo s l; right = memo s r }
  end
  else None

let rec prune m budget =
  if budget <= 1 then m.leaf
  else
    match Lazy.force m.cut with
    | None -> m.leaf
    | Some { dim; thr; left; right } ->
        let nl = Array.length left.indices and nr = Array.length right.indices in
        let bl = max 1 (budget * nl / (nl + nr)) in
        let br = max 1 (budget - bl) in
        Split { dim; thr; left = prune left bl; right = prune right br }

let fit_grid ?(min_leaf = 3) ~max_leaves (d : Dataset.t) =
  let s = scratch ~min_leaf d in
  let root = memo s (Array.init (Dataset.size d) Fun.id) in
  List.map (prune root) max_leaves

let fit ?min_leaf ~max_leaves d = List.hd (fit_grid ?min_leaf ~max_leaves:[ max_leaves ] d)

let rec predict node x =
  match node with
  | Leaf { mean; _ } -> mean
  | Split { dim; thr; left; right } -> if x.(dim) <= thr then predict left x else predict right x

let rec leaves = function
  | Leaf { indices; mean } -> [ (indices, mean) ]
  | Split s -> leaves s.left @ leaves s.right
