(** Model quality metrics (paper §4.4 and §6.1). *)

(** Mean absolute percentage error of predictions vs actuals. Zero-response
    samples are undefined under APE (division by |y| = 0) and would poison
    the whole metric with infinity/NaN; the policy is skip-with-count:
    they are excluded and reported in the second component. *)
let mape_with_skipped predict (d : Dataset.t) =
  let n = Dataset.size d in
  let acc = ref 0.0 and used = ref 0 in
  for i = 0 to n - 1 do
    let y = d.Dataset.y.(i) in
    if Float.abs y > 0.0 then begin
      let p = predict d.Dataset.x.(i) in
      acc := !acc +. (Float.abs (p -. y) /. Float.abs y);
      incr used
    end
  done;
  if !used = 0 then (Float.nan, n) else (100.0 *. !acc /. float_of_int !used, n - !used)

let mape predict d = fst (mape_with_skipped predict d)

let rmse predict (d : Dataset.t) =
  let n = Dataset.size d in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let e = predict d.Dataset.x.(i) -. d.Dataset.y.(i) in
    acc := !acc +. (e *. e)
  done;
  sqrt (!acc /. float_of_int n)

let sse predict (d : Dataset.t) =
  let acc = ref 0.0 in
  for i = 0 to Array.length d.Dataset.x - 1 do
    let e = predict d.Dataset.x.(i) -. d.Dataset.y.(i) in
    acc := !acc +. (e *. e)
  done;
  !acc

(** Bayesian information criterion as used in the paper (Equation 9):
    [BIC = (p + (ln p - 1) γ) / (p (p - γ)) × SSE] with [p] samples and [γ]
    model parameters. Lower is better; γ >= p yields [infinity]. *)
let bic ~samples ~params ~sse:e =
  let p = float_of_int samples and g = float_of_int params in
  if g >= p then infinity else (p +. ((log p -. 1.0) *. g)) /. (p *. (p -. g)) *. e

(** Generalized cross validation (Friedman '91): [SSE/n / (1 - C/n)^2] where
    the effective parameter count [c] includes the knot-selection penalty. *)
let gcv ~samples ~effective_params ~sse:e =
  let n = float_of_int samples in
  let c = effective_params in
  if c >= n then infinity
  else
    let denom = 1.0 -. (c /. n) in
    e /. n /. (denom *. denom)

(* ------------------------------------------------------------------ *)
(* Rank-quality metrics: the GA consumer of a model (paper §6.3) only
   needs the *order* of design points, so a model family should also be
   judged on how well it ranks, not just RMSE/MAPE. *)

(* Ascending order with NaN sorted last — the same convention as the GA's
   fitness order: a NaN prediction must not be treated as the best point. *)
let nan_last a b =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare a b

(** Descending-|coefficient| order over [(term, coef)] pairs with
    NaN-coefficient terms last — the Table-4 term ranking shared by
    [emc rank] and the serving daemon's /rank endpoint. *)
let strength_order (_, a) (_, b) =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare (Float.abs b) (Float.abs a)

(* Indices of [vs] in ascending value order, ties broken by index so the
   permutation is total and deterministic. *)
let order_indices vs =
  let idx = Array.init (Array.length vs) Fun.id in
  Array.sort
    (fun i j ->
      let c = nan_last vs.(i) vs.(j) in
      if c <> 0 then c else compare i j)
    idx;
  idx

(* Fractional (average) ranks: tied values all receive the mean of the
   positions they occupy — the standard tie treatment for Spearman. *)
let average_ranks vs =
  let n = Array.length vs in
  let idx = order_indices vs in
  let ranks = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    (* the tie group [i, j]: equal values (two NaNs compare equal here) *)
    while !j + 1 < n && nan_last vs.(idx.(!j + 1)) vs.(idx.(!i)) = 0 do
      incr j
    done;
    let r = float_of_int (!i + !j) /. 2.0 +. 1.0 in
    for k = !i to !j do
      ranks.(idx.(k)) <- r
    done;
    i := !j + 1
  done;
  ranks

let spearman_arrays a b =
  if Array.length a <> Array.length b then invalid_arg "Metrics.spearman: length mismatch";
  if Array.length a < 2 then invalid_arg "Metrics.spearman: need >= 2 samples";
  Emc_util.Stats.correlation (average_ranks a) (average_ranks b)

let spearman predict (d : Dataset.t) =
  spearman_arrays (Array.map predict d.Dataset.x) d.Dataset.y

(* The k dataset indices the model ranks best (smallest predicted response),
   deterministic under prediction ties. *)
let predicted_top_k ~k predict (d : Dataset.t) =
  let n = Dataset.size d in
  let k = Stdlib.min k n in
  let preds = Array.map predict d.Dataset.x in
  Array.sub (order_indices preds) 0 k

let top_k_regret ~k predict (d : Dataset.t) =
  if k < 1 then invalid_arg "Metrics.top_k_regret: k must be >= 1";
  let top = predicted_top_k ~k predict d in
  let best = Emc_util.Stats.min d.Dataset.y in
  let best_in_top =
    Array.fold_left
      (fun acc i -> if nan_last d.Dataset.y.(i) acc < 0 then d.Dataset.y.(i) else acc)
      d.Dataset.y.(top.(0))
      top
  in
  if Float.abs best > 0.0 then 100.0 *. (best_in_top -. best) /. Float.abs best
  else best_in_top -. best

let precision_at_k ~k predict (d : Dataset.t) =
  if k < 1 then invalid_arg "Metrics.precision_at_k: k must be >= 1";
  let n = Dataset.size d in
  let k = Stdlib.min k n in
  let predicted = predicted_top_k ~k predict d in
  let actual = Array.sub (order_indices d.Dataset.y) 0 k in
  let hits =
    Array.fold_left
      (fun acc i -> if Array.exists (Int.equal i) actual then acc + 1 else acc)
      0 predicted
  in
  float_of_int hits /. float_of_int k
