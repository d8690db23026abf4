open Emc_linalg

(** Linear regression with two-factor interactions (paper §4.1, Equation 2):

    [y = β0 + Σ βi xi + Σ Σ βij xi xj]

    fitted by ridge-regularized least squares: the normal equations, with a
    tiny ridge on the diagonal, are solved by Cholesky, and only when that
    factorization fails is the unpenalized problem solved by Householder QR
    ({!Mat.lstsq}). With 25 predictors this is 1 + 25 + 325 = 351 columns;
    the paper's 400-point designs keep it overdetermined. Pure main-effects models are available with
    [~interactions:false]. The feature expansion lives in {!Repr} (shared
    with artifact evaluation); the returned model's [predict] is
    [Repr.eval] of its repr, so saved models reproduce it bit-for-bit. *)

let feature_names ~interactions names =
  let k = Array.length names in
  let out = Array.make (Repr.n_features ~interactions k) "const" in
  Array.blit names 0 out 1 k;
  if interactions then begin
    let idx = ref (1 + k) in
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        out.(!idx) <- (if i = j then names.(i) ^ "^2" else names.(i) ^ " * " ^ names.(j));
        incr idx
      done
    done
  end;
  out

(* Tiny Tikhonov ridge: with the paper's 400-point designs the penalty is
   negligible, but it keeps the 351-column interaction model well-posed on
   the smaller designs of the quick protocol instead of exploding. *)
let ridge = 1e-4

let fit ?(interactions = true) ?(names = [||]) (d : Dataset.t) : Model.t =
  let k = Dataset.dims d in
  let names = if Array.length names = k then names else Array.init k (Printf.sprintf "x%d") in
  let d_std, mu, sd_y = Dataset.standardize_stats d in
  let rows = Array.map (Repr.expand ~interactions) d_std.Dataset.x in
  let xmat = Mat.of_rows rows in
  let beta =
    let g = Mat.gram xmat in
    let p = Mat.rows g in
    for i = 0 to p - 1 do
      Mat.set g i i (Mat.get g i i +. (ridge *. float_of_int (Dataset.size d)))
    done;
    let rhs = Mat.tmul_vec xmat d_std.Dataset.y in
    try Mat.solve_spd g rhs with Failure _ -> Mat.lstsq xmat d_std.Dataset.y
  in
  let fnames = feature_names ~interactions names in
  let unstd_y v = (v *. sd_y) +. mu in
  let sd = unstd_y 1.0 -. unstd_y 0.0 in
  let terms =
    Array.to_list
      (Array.mapi
         (fun i b -> (fnames.(i), if i = 0 then unstd_y b else b *. sd))
         beta)
  in
  let repr = Repr.Linear { interactions; beta; mu; sd = sd_y } in
  {
    Model.technique = "linear";
    predict = Repr.eval repr;
    n_params = Array.length beta;
    terms = List.filter (fun (_, b) -> Float.abs b > 1e-12) terms;
    repr = Some repr;
  }
