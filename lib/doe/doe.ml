open Emc_util
open Emc_linalg

(** Design of experiments (paper §3).

    The design space is the cross product of per-dimension coded levels (all
    in [-1,1]). Candidate points come from Latin hypercube sampling over the
    level grid; a D-optimal subset is selected with a modified Fedorov
    exchange that maximizes det(XᵀX) of the main-effects model matrix
    (intercept + one column per parameter). Larger determinant ≈ lower
    variance of the fitted coefficients, which is the paper's rationale for
    D-optimality; designs are extensible by running more exchange rounds on
    an augmented point set. *)

type space = {
  names : string array;
  levels : float array array;  (** coded admissible values per dimension *)
}

let dims space = Array.length space.levels

(** Expand a coded point into a main-effects model row [1; x1; ...; xk]. *)
let expand_main x =
  let k = Array.length x in
  Array.init (k + 1) (fun i -> if i = 0 then 1.0 else x.(i - 1))

(** Uniform random point on the level grid. *)
let random_point rng space =
  Array.map (fun levels -> Rng.choice rng levels) space.levels

let random_design rng space n = Array.init n (fun _ -> random_point rng space)

(** Latin hypercube sample over the grid: each dimension's draw sequence is a
    stratified permutation of its levels, giving better marginal coverage
    than iid sampling. *)
let lhs rng space n =
  let k = dims space in
  let columns =
    Array.init k (fun d ->
        let levels = space.levels.(d) in
        let nl = Array.length levels in
        (* repeat levels ceil(n/nl) times, shuffle, take n *)
        let reps = ((n + nl - 1) / nl) + 1 in
        let pool = Array.concat (List.init reps (fun _ -> Array.copy levels)) in
        Rng.shuffle rng pool;
        Array.sub pool 0 n)
  in
  Array.init n (fun i -> Array.init k (fun d -> columns.(d).(i)))

let ridge = 1e-8

(* XᵀX of the main-effects expansion, with a tiny ridge so the criterion
   is defined even for degenerate point sets. *)
let information_matrix points =
  let rows = Array.map expand_main points in
  let x = Mat.of_rows rows in
  let g = Mat.gram x in
  let p = Mat.rows g in
  for i = 0 to p - 1 do
    Mat.set g i i (Mat.get g i i +. ridge)
  done;
  g

(** log det(XᵀX) of the main-effects information matrix — the D-criterion. *)
let log_det_information points = Mat.log_det (information_matrix points)

(** Modified Fedorov exchange: for each design point in turn, consider
    swapping it with every candidate and apply the best improving exchange.
    [sweeps] full passes (2–3 suffice in practice). [fixed] rows are already
    measured and cannot be exchanged, but contribute to the information
    matrix, so the [n] returned rows D-optimally {e augment} them — the
    extensibility property the Figure-1 iteration relies on. *)
let d_optimal ?(sweeps = 3) ?(fixed = [||]) rng space ~n ~candidates =
  let cands = Array.map expand_main candidates in
  let m = Array.length cands in
  if m = 0 then invalid_arg "Doe.d_optimal: no candidates";
  (* start from a random subset of candidates *)
  let idx = Rng.sample_without_replacement rng (min n m) m in
  let design = Array.map (fun i -> Array.copy candidates.(i)) idx in
  (* if n > m, pad with random grid points *)
  let design =
    if Array.length design < n then
      Array.append design (Array.init (n - Array.length design) (fun _ -> random_point rng space))
    else design
  in
  let full design = Array.append fixed design in
  let p = dims space + 1 in
  let minv = ref (Mat.inverse (information_matrix (full design))) in
  let dot v w =
    let acc = ref 0.0 in
    for i = 0 to p - 1 do
      acc := !acc +. (v.(i) *. w.(i))
    done;
    !acc
  in
  (* per-sweep D-criterion trajectory: log det is O(p^3), negligible next
     to the exchange sweep itself, so the telemetry is always on *)
  let logdet = ref (log_det_information (full design)) in
  let h_gain = Emc_obs.Metrics.histogram "doe.sweep_logdet_gain" in
  for sweep = 1 to sweeps do
    for i = 0 to Array.length design - 1 do
      let xi = expand_main design.(i) in
      let mvi = Mat.mul_vec !minv xi in
      let di = dot xi mvi in
      let best_delta = ref 1e-9 and best_j = ref (-1) in
      for j = 0 to m - 1 do
        let xj = cands.(j) in
        let mvj = Mat.mul_vec !minv xj in
        let dj = dot xj mvj in
        let g = dot xi mvj in
        (* Fedorov's delta for exchanging xi with xj *)
        let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
        if delta > !best_delta then begin
          best_delta := delta;
          best_j := j
        end
      done;
      if !best_j >= 0 then begin
        design.(i) <- Array.copy candidates.(!best_j);
        minv := Mat.inverse (information_matrix (full design))
      end
    done;
    let after = log_det_information (full design) in
    let gain = after -. !logdet in
    Emc_obs.Metrics.observe h_gain gain;
    Emc_obs.Log.debug ~src:"doe"
      ~fields:
        [ ("sweep", Emc_obs.Json.Int sweep);
          ("logdet", Emc_obs.Json.Float after);
          ("gain", Emc_obs.Json.Float gain) ]
      "sweep %d/%d: log det(X'X) %.3f (gain %+.3f)" sweep sweeps after gain;
    Emc_obs.Trace.counter "doe.logdet" [ ("logdet", after) ];
    logdet := after
  done;
  design

(** Generate a design of [n] points: LHS candidates + Fedorov exchange. The
    candidate pool size scales with [n]. *)
let generate ?(sweeps = 2) ?(cand_factor = 5) rng space ~n =
  Emc_obs.Trace.with_span ~cat:"doe"
    ~args:(fun () -> [ ("n", Emc_obs.Json.Int n); ("sweeps", Emc_obs.Json.Int sweeps) ])
    "doe.generate"
    (fun () ->
      let candidates =
        Array.append (lhs rng space (cand_factor * n)) (random_design rng space n)
      in
      d_optimal ~sweeps rng space ~n ~candidates)

(** Augment an existing (already measured) design with [n_extra] new points
    chosen D-optimally {e given} the old rows: fresh LHS candidates, Fedorov
    exchange with the old design held fixed. Returns only the new rows. *)
let augment ?(sweeps = 2) ?(cand_factor = 5) rng space ~design ~n_extra =
  Emc_obs.Trace.with_span ~cat:"doe"
    ~args:(fun () ->
      [ ("fixed", Emc_obs.Json.Int (Array.length design));
        ("n_extra", Emc_obs.Json.Int n_extra) ])
    "doe.augment"
    (fun () ->
      let candidates =
        Array.append (lhs rng space (cand_factor * n_extra)) (random_design rng space n_extra)
      in
      d_optimal ~sweeps ~fixed:design rng space ~n:n_extra ~candidates)
