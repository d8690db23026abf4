open Emc_linalg

(** Radial basis function networks with regression-tree center selection
    (paper §4.3, following Orr et al. [12]).

    For each candidate network size, a regression tree partitions the design
    space into regions of uniform response; the training point nearest each
    leaf centroid becomes an RBF center, the leaf's spatial extent sets the
    radius. Output weights are the ridge-regularized least-squares solution.
    The network size is selected by BIC (paper §4.4). The trees of the size
    grid come from one {!Tree.fit_grid} memo: a node's best split does not
    depend on the leaf budget, and a larger budget never gives a child a
    smaller share, so each grid tree is a pruning of the largest and every
    split is computed once per fit. The paper's printed "multiquad" kernel
    formula is imaginary for distant inputs — an evident typo for the
    standard multiquadric √(d²/r² + 1), which we use (it was the paper's
    most accurate kernel); Gaussian and inverse multiquadric are also
    available. *)

type kernel = Repr.kernel = Gaussian | Multiquadric | InverseMultiquadric

let kernel_name = Repr.kernel_name

(* kernel/distance evaluation is shared with artifact eval (Repr) so that a
   saved network reproduces the fitted one bit-for-bit *)
let eval_kernel = Repr.eval_kernel

let dist2 = Repr.dist2

(* centers and radii from the leaves of one tree of the size search *)
let centers_from_tree (d : Dataset.t) tree =
  let k = Dataset.dims d in
  List.map
    (fun (indices, _) ->
      (* leaf centroid *)
      let centroid =
        Array.init k (fun dim ->
            Emc_util.Stats.mean (Array.map (fun i -> d.Dataset.x.(i).(dim)) indices))
      in
      (* training point nearest the centroid *)
      let best = ref indices.(0) in
      Array.iter
        (fun i ->
          if dist2 d.Dataset.x.(i) centroid < dist2 d.Dataset.x.(!best) centroid then best := i)
        indices;
      let center = Array.copy d.Dataset.x.(!best) in
      (* radius: RMS distance of leaf points to the center, floored *)
      let spread =
        if Array.length indices <= 1 then 1.0
        else
          sqrt
            (Emc_util.Stats.mean (Array.map (fun i -> dist2 d.Dataset.x.(i) center) indices))
      in
      (center, Float.max 0.5 (2.0 *. spread)))
    (Tree.leaves tree)

let ridge = 1e-6

(* fit weights for a fixed set of centers *)
let fit_weights kernel (d : Dataset.t) centers =
  let n = Dataset.size d in
  let c = List.length centers in
  let centers = Array.of_list centers in
  (* design matrix: bias + one column per center *)
  let phi =
    Mat.init n (c + 1) (fun i j ->
        if j = 0 then 1.0
        else
          let ctr, r = centers.(j - 1) in
          eval_kernel kernel ~r (dist2 d.Dataset.x.(i) ctr))
  in
  let g = Mat.gram phi in
  for i = 0 to c do
    Mat.set g i i (Mat.get g i i +. ridge)
  done;
  let rhs = Mat.tmul_vec phi d.Dataset.y in
  try Mat.solve_spd g rhs with Failure _ -> Mat.lstsq phi d.Dataset.y

(* Candidate center counts tried by BIC for a given training-set size. *)
let default_size_grid n =
  List.filter (fun c -> c >= 4 && c <= n / 3) [ 4; 6; 8; 12; 16; 24; 32; 48; 64; 96 ]

(** Train an RBF network; the number of centers is chosen by BIC over
    [size_grid]. *)
let fit ?(kernel = Multiquadric) ?size_grid (d : Dataset.t) : Model.t =
  let d_std, mu, sd = Dataset.standardize_stats d in
  let n = Dataset.size d in
  let grid = match size_grid with Some g -> g | None -> default_size_grid n in
  let grid = if grid = [] then [ max 2 (n / 4) ] else grid in
  let fit_one tree =
    let centers = centers_from_tree d_std tree in
    let w = fit_weights kernel d_std centers in
    (* scored in standardized units: at mu = 0 and sd = 1 the evaluator's
       rescaling is exact, so this is the network's own training SSE *)
    let net =
      Repr.Rbf
        { kernel; centers = Array.of_list (List.map fst centers);
          radii = Array.of_list (List.map snd centers); weights = w; mu = 0.0; sd = 1.0 }
    in
    let sse = Metrics.sse (Repr.eval net) d_std in
    let bic = Metrics.bic ~samples:n ~params:(Array.length w) ~sse in
    (bic, centers, w)
  in
  let best =
    List.fold_left
      (fun acc tree ->
        let (bic, _, _) as cand = fit_one tree in
        match acc with
        | Some (b', _, _) when b' <= bic -> acc
        | _ -> Some cand)
      None (Tree.fit_grid ~max_leaves:grid d_std)
  in
  let _, centers, w = Option.get best in
  let centers = Array.of_list centers in
  let repr =
    Repr.Rbf
      { kernel; centers = Array.map fst centers; radii = Array.map snd centers; weights = w;
        mu; sd }
  in
  (* center/weight pairs in response units (weights scale by the response
     sd; the bias absorbs the mean) — the Table-4 reading for networks *)
  let terms =
    ("bias", (w.(0) *. sd) +. mu)
    :: Array.to_list
         (Array.mapi
            (fun j (_, r) -> (Printf.sprintf "center%d(r=%.2f)" j r, w.(j + 1) *. sd))
            centers)
  in
  {
    Model.technique = "rbf-rt(" ^ kernel_name kernel ^ ")";
    predict = Repr.eval repr;
    n_params = Array.length w;
    terms;
    repr = Some repr;
  }
