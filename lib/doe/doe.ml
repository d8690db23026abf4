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
    an augmented point set.

    The exchange keeps every candidate's M⁻¹x_j and x_jᵀM⁻¹x_j and
    recomputes them only when an accepted exchange changes M⁻¹, so a visit
    costs one p-long dot product per candidate. Each is computed with the
    products and the summation order of [Mat.mul_vec] and a dot product, so
    designs are bit for bit those of an exchange that recomputes them at
    every visit. The design's main-effects rows stay in one matrix, and an
    accepted exchange overwrites its row there before M is rebuilt. *)

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

(* XᵀX of the main-effects rows [x], with a tiny ridge so the criterion
   is defined even for degenerate point sets. *)
let information x =
  let g = Mat.gram x in
  let p = Mat.rows g in
  for i = 0 to p - 1 do
    Mat.set g i i (Mat.get g i i +. ridge)
  done;
  g

let main_rows points = Mat.of_rows (Array.map expand_main points)

(** log det(XᵀX) of the main-effects information matrix — the D-criterion. *)
let log_det_information points = Mat.log_det (information (main_rows points))

(* M⁻¹x_j for all m candidates, two candidates per pass over the rows of
   M⁻¹ and four rows at a time, one accumulator per candidate and row.
   Every accumulator adds its products over the columns in order, as
   {!Mat.mul_vec} does, so [mv] and [d] hold the bits a per-candidate
   [Mat.mul_vec] and dot product would give. A lone last candidate is
   paired with itself and gets the same sums twice. [cands] holds the
   candidates' model rows, [mv] their projections (m×p, row-major) and
   [d.(j)] is x_jᵀM⁻¹x_j. The loops read and write unchecked, after the
   entry checks that every array holds the cells they index. *)
let project ~p ~minv ~cands ~mv ~d =
  let m = Array.length cands in
  if
    p < 0
    || Array.length minv < p * p
    || Array.length mv < m * p
    || Array.length d < m
    || Array.exists (fun x -> Array.length x < p) cands
  then invalid_arg "Doe.project: dimension mismatch";
  let j = ref 0 in
  while !j < m do
    let j0 = !j in
    let j1 = if j0 + 1 < m then j0 + 1 else j0 in
    let x0 = Array.unsafe_get cands j0 and x1 = Array.unsafe_get cands j1 in
    let p0 = j0 * p and p1 = j1 * p in
    let r = ref 0 in
    while !r + 3 < p do
      let r0 = !r in
      let row = r0 * p in
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      let b0 = ref 0.0 and b1 = ref 0.0 and b2 = ref 0.0 and b3 = ref 0.0 in
      for c = 0 to p - 1 do
        let u = Array.unsafe_get x0 c and v = Array.unsafe_get x1 c in
        let m0 = Array.unsafe_get minv (row + c)
        and m1 = Array.unsafe_get minv (row + p + c)
        and m2 = Array.unsafe_get minv (row + (2 * p) + c)
        and m3 = Array.unsafe_get minv (row + (3 * p) + c) in
        a0 := !a0 +. (m0 *. u);
        b0 := !b0 +. (m0 *. v);
        a1 := !a1 +. (m1 *. u);
        b1 := !b1 +. (m1 *. v);
        a2 := !a2 +. (m2 *. u);
        b2 := !b2 +. (m2 *. v);
        a3 := !a3 +. (m3 *. u);
        b3 := !b3 +. (m3 *. v)
      done;
      Array.unsafe_set mv (p0 + r0) !a0;
      Array.unsafe_set mv (p0 + r0 + 1) !a1;
      Array.unsafe_set mv (p0 + r0 + 2) !a2;
      Array.unsafe_set mv (p0 + r0 + 3) !a3;
      Array.unsafe_set mv (p1 + r0) !b0;
      Array.unsafe_set mv (p1 + r0 + 1) !b1;
      Array.unsafe_set mv (p1 + r0 + 2) !b2;
      Array.unsafe_set mv (p1 + r0 + 3) !b3;
      r := r0 + 4
    done;
    for r = !r to p - 1 do
      let a = ref 0.0 and b = ref 0.0 in
      for c = 0 to p - 1 do
        let mrc = Array.unsafe_get minv ((r * p) + c) in
        a := !a +. (mrc *. Array.unsafe_get x0 c);
        b := !b +. (mrc *. Array.unsafe_get x1 c)
      done;
      Array.unsafe_set mv (p0 + r) !a;
      Array.unsafe_set mv (p1 + r) !b
    done;
    let e0 = ref 0.0 and e1 = ref 0.0 in
    for c = 0 to p - 1 do
      e0 := !e0 +. (Array.unsafe_get x0 c *. Array.unsafe_get mv (p0 + c));
      e1 := !e1 +. (Array.unsafe_get x1 c *. Array.unsafe_get mv (p1 + c))
    done;
    Array.unsafe_set d j0 !e0;
    Array.unsafe_set d j1 !e1;
    j := j0 + 2
  done

(* The candidate whose exchange with the design point [xi] (with
   [di = xiᵀM⁻¹xi]) gains the most, or -1 when none gains more than 1e-9:
   Fedorov's delta from each candidate's projection in [mv] and its
   [d.(j)]. Four candidates per pass over [xi], one accumulator each,
   every one adding its products over r in order; the deltas are then
   compared in candidate order, so the first of equal gains wins, as in a
   one-candidate loop. Unchecked after the entry check. *)
let best_exchange ~p ~mv ~d xi di =
  let m = Array.length d in
  if p < 0 || Array.length xi < p || Array.length mv < m * p then
    invalid_arg "Doe.best_exchange: dimension mismatch";
  let best_delta = ref 1e-9 and best_j = ref (-1) in
  let j = ref 0 in
  while !j + 3 < m do
    let j0 = !j in
    let q0 = j0 * p in
    let q1 = q0 + p in
    let q2 = q1 + p in
    let q3 = q2 + p in
    let g0 = ref 0.0 and g1 = ref 0.0 and g2 = ref 0.0 and g3 = ref 0.0 in
    for r = 0 to p - 1 do
      let x = Array.unsafe_get xi r in
      g0 := !g0 +. (x *. Array.unsafe_get mv (q0 + r));
      g1 := !g1 +. (x *. Array.unsafe_get mv (q1 + r));
      g2 := !g2 +. (x *. Array.unsafe_get mv (q2 + r));
      g3 := !g3 +. (x *. Array.unsafe_get mv (q3 + r))
    done;
    let dj = Array.unsafe_get d j0 and g = !g0 in
    let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
    if delta > !best_delta then begin
      best_delta := delta;
      best_j := j0
    end;
    let dj = Array.unsafe_get d (j0 + 1) and g = !g1 in
    let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
    if delta > !best_delta then begin
      best_delta := delta;
      best_j := j0 + 1
    end;
    let dj = Array.unsafe_get d (j0 + 2) and g = !g2 in
    let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
    if delta > !best_delta then begin
      best_delta := delta;
      best_j := j0 + 2
    end;
    let dj = Array.unsafe_get d (j0 + 3) and g = !g3 in
    let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
    if delta > !best_delta then begin
      best_delta := delta;
      best_j := j0 + 3
    end;
    j := j0 + 4
  done;
  for j = !j to m - 1 do
    let jp = j * p in
    let g = ref 0.0 in
    for r = 0 to p - 1 do
      g := !g +. (Array.unsafe_get xi r *. Array.unsafe_get mv (jp + r))
    done;
    let g = !g and dj = Array.unsafe_get d j in
    let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
    if delta > !best_delta then begin
      best_delta := delta;
      best_j := j
    end
  done;
  !best_j

(** Modified Fedorov exchange: for each design point in turn, consider
    swapping it with every candidate and apply the best improving exchange.
    [sweeps] full passes (2–3 suffice in practice). [fixed] rows are already
    measured and cannot be exchanged, but contribute to the information
    matrix, so the [n] returned rows D-optimally {e augment} them — the
    extensibility property the Figure-1 iteration relies on. *)
let d_optimal ?(sweeps = 3) ?(fixed = [||]) rng space ~n ~candidates =
  let t0 = Unix.gettimeofday () in
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
  let p = dims space + 1 in
  (* the main-effects rows of [fixed ++ design]; an accepted exchange
     overwrites its design point's row *)
  let x = main_rows (Array.append fixed design) in
  let nfixed = Array.length fixed in
  let minv_flat = Array.make (p * p) 0.0 in
  let mv = Array.make (m * p) 0.0 and d = Array.make m 0.0 in
  (* M⁻¹ of the current design; refills [mv] and [d] from it *)
  let refresh () =
    let minv = Mat.inverse (information x) in
    for r = 0 to p - 1 do
      for c = 0 to p - 1 do
        minv_flat.((r * p) + c) <- Mat.get minv r c
      done
    done;
    project ~p ~minv:minv_flat ~cands ~mv ~d;
    minv
  in
  let minv = ref (refresh ()) in
  let dot v w =
    let acc = ref 0.0 in
    for i = 0 to p - 1 do
      acc := !acc +. (v.(i) *. w.(i))
    done;
    !acc
  in
  (* per-sweep D-criterion trajectory: log det is O(p^3), negligible next
     to the exchange sweep itself, so the telemetry is always on *)
  let logdet = ref (Mat.log_det (information x)) in
  let h_gain = Emc_obs.Metrics.histogram "doe.sweep_logdet_gain" in
  let exchanges = Emc_obs.Metrics.counter "doe.exchanges" in
  for sweep = 1 to sweeps do
    for i = 0 to Array.length design - 1 do
      let xi = expand_main design.(i) in
      let di = dot xi (Mat.mul_vec !minv xi) in
      let best_j = best_exchange ~p ~mv ~d xi di in
      if best_j >= 0 then begin
        design.(i) <- Array.copy candidates.(best_j);
        let xj = cands.(best_j) in
        for c = 0 to p - 1 do
          Mat.set x (nfixed + i) c xj.(c)
        done;
        Emc_obs.Metrics.incr exchanges;
        minv := refresh ()
      end
    done;
    let after = Mat.log_det (information x) in
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
  (* the whole exchange, once per call: the layer time `emc model --metrics`
     shows for design generation *)
  Emc_obs.Metrics.observe
    (Emc_obs.Metrics.histogram "doe.exchange_seconds")
    (Unix.gettimeofday () -. t0);
  design

(** Generate a design of [n] points: LHS candidates + Fedorov exchange. The
    candidate pool size scales with [n]. *)
let generate ?(sweeps = 2) ?(cand_factor = 5) rng space ~n =
  Emc_obs.Trace.with_span ~cat:"doe"
    ~args:(fun () -> [ ("n", Emc_obs.Json.Int n); ("sweeps", Emc_obs.Json.Int sweeps) ])
    "doe.generate"
    (fun () ->
      if n < 1 then invalid_arg (Printf.sprintf "Doe.generate: n must be at least 1, not %d" n);
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
      if n_extra < 1 then
        invalid_arg (Printf.sprintf "Doe.augment: n_extra must be at least 1, not %d" n_extra);
      let candidates =
        Array.append (lhs rng space (cand_factor * n_extra)) (random_design rng space n_extra)
      in
      d_optimal ~sweeps ~fixed:design rng space ~n:n_extra ~candidates)
