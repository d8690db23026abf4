open Emc_linalg

let checkf = Alcotest.(check (float 1e-8))
let checkf_loose = Alcotest.(check (float 1e-5))

let mat22 a b c d = Mat.of_rows [| [| a; b |]; [| c; d |] |]

(* random well-conditioned matrix: M + n*I *)
let random_spd rng n =
  let b = Mat.init n n (fun _ _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
  Mat.add (Mat.gram b) (Mat.scale (float_of_int n) (Mat.identity n))

let random_mat rng r c = Mat.init r c (fun _ _ -> Emc_util.Rng.float rng 2.0 -. 1.0)

let test_identity_mul () =
  let rng = Emc_util.Rng.create 1 in
  let a = random_mat rng 4 4 in
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.mul (Mat.identity 4) a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.mul a (Mat.identity 4)) a)

let test_transpose () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  checkf "element" 2.0 (Mat.get t 1 0);
  Alcotest.(check bool) "involution" true (Mat.equal (Mat.transpose t) a)

let test_mul_known () =
  let a = mat22 1.0 2.0 3.0 4.0 in
  let b = mat22 5.0 6.0 7.0 8.0 in
  let c = Mat.mul a b in
  checkf "c00" 19.0 (Mat.get c 0 0);
  checkf "c01" 22.0 (Mat.get c 0 1);
  checkf "c10" 43.0 (Mat.get c 1 0);
  checkf "c11" 50.0 (Mat.get c 1 1)

let test_det_known () =
  checkf "2x2 det" (-2.0) (Mat.lu_det (mat22 1.0 2.0 3.0 4.0));
  checkf "identity det" 1.0 (Mat.lu_det (Mat.identity 5));
  checkf "singular det" 0.0 (Mat.lu_det (mat22 1.0 2.0 2.0 4.0))

let test_det_product () =
  let rng = Emc_util.Rng.create 2 in
  for _ = 1 to 10 do
    let a = random_mat rng 4 4 and b = random_mat rng 4 4 in
    let lhs = Mat.lu_det (Mat.mul a b) in
    let rhs = Mat.lu_det a *. Mat.lu_det b in
    Alcotest.(check bool) "det(AB) = det A det B" true (Float.abs (lhs -. rhs) < 1e-8 *. (1.0 +. Float.abs rhs))
  done

let test_log_det () =
  let rng = Emc_util.Rng.create 3 in
  let a = random_spd rng 6 in
  checkf_loose "log_det matches log |det|" (log (Float.abs (Mat.lu_det a))) (Mat.log_det a);
  Alcotest.(check bool) "singular -> -inf" true
    (Mat.log_det (mat22 1.0 2.0 2.0 4.0) = neg_infinity)

let test_solve_roundtrip () =
  let rng = Emc_util.Rng.create 4 in
  for n = 1 to 8 do
    let a = Mat.add (random_mat rng n n) (Mat.scale (float_of_int n) (Mat.identity n)) in
    let x = Array.init n (fun i -> float_of_int (i + 1)) in
    let b = Mat.mul_vec a x in
    let x' = Mat.solve a b in
    Array.iteri (fun i v -> checkf_loose (Printf.sprintf "x[%d]" i) v x'.(i)) x
  done

let test_solve_singular () =
  Alcotest.check_raises "singular raises" (Failure "Mat.solve: singular matrix") (fun () ->
      ignore (Mat.solve (mat22 1.0 2.0 2.0 4.0) [| 1.0; 1.0 |]))

let test_inverse () =
  let rng = Emc_util.Rng.create 5 in
  let a = random_spd rng 5 in
  let inv = Mat.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true (Mat.equal ~eps:1e-8 (Mat.mul a inv) (Mat.identity 5))

let test_cholesky () =
  let rng = Emc_util.Rng.create 6 in
  let a = random_spd rng 6 in
  let l = Mat.cholesky a in
  Alcotest.(check bool) "L Lt = A" true (Mat.equal ~eps:1e-8 (Mat.mul l (Mat.transpose l)) a);
  (* strictly upper part is zero *)
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      checkf "upper zero" 0.0 (Mat.get l i j)
    done
  done

let test_cholesky_not_pd () =
  Alcotest.check_raises "not PD raises" (Failure "Mat.cholesky: matrix not positive definite")
    (fun () -> ignore (Mat.cholesky (mat22 1.0 2.0 2.0 1.0)))

let test_solve_spd () =
  let rng = Emc_util.Rng.create 7 in
  let a = random_spd rng 7 in
  let x = Array.init 7 (fun i -> float_of_int i -. 3.0) in
  let b = Mat.mul_vec a x in
  let x' = Mat.solve_spd a b in
  Array.iteri (fun i v -> checkf_loose "spd solve" v x'.(i)) x

let test_lstsq_square () =
  let a = mat22 2.0 0.0 0.0 4.0 in
  let x = Mat.lstsq a [| 6.0; 8.0 |] in
  checkf_loose "x0" 3.0 x.(0);
  checkf_loose "x1" 2.0 x.(1)

let test_lstsq_overdetermined () =
  (* y = 3 + 2x sampled with no noise; recover exactly *)
  let xs = Array.init 20 (fun i -> float_of_int i /. 5.0) in
  let a = Mat.of_rows (Array.map (fun x -> [| 1.0; x |]) xs) in
  let y = Array.map (fun x -> 3.0 +. (2.0 *. x)) xs in
  let beta = Mat.lstsq a y in
  checkf_loose "intercept" 3.0 beta.(0);
  checkf_loose "slope" 2.0 beta.(1)

let test_lstsq_rank_deficient () =
  (* duplicated column: must not crash, must still fit *)
  let xs = Array.init 10 (fun i -> float_of_int i) in
  let a = Mat.of_rows (Array.map (fun x -> [| 1.0; x; x |]) xs) in
  let y = Array.map (fun x -> 1.0 +. x) xs in
  let beta = Mat.lstsq a y in
  (* predictions must be right even if coefficient split is arbitrary *)
  Array.iteri
    (fun i x ->
      checkf_loose "prediction" y.(i) (beta.(0) +. (beta.(1) *. x) +. (beta.(2) *. x)))
    xs

let test_gram () =
  let rng = Emc_util.Rng.create 8 in
  let a = random_mat rng 5 3 in
  let g = Mat.gram a in
  let g' = Mat.mul (Mat.transpose a) a in
  Alcotest.(check bool) "gram = At A" true (Mat.equal ~eps:1e-10 g g');
  for i = 0 to 2 do
    for j = 0 to 2 do
      checkf "symmetric" (Mat.get g i j) (Mat.get g j i)
    done
  done

let test_of_rows_validation () =
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Mat.of_rows: ragged rows") (fun () ->
      ignore (Mat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let prop_solve_random =
  QCheck.Test.make ~name:"solve recovers x on diagonally-dominant systems" ~count:100
    QCheck.(pair (int_range 1 7) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Emc_util.Rng.create seed in
      let a = Mat.add (random_mat rng n n) (Mat.scale (2.0 *. float_of_int n) (Mat.identity n)) in
      let x = Array.init n (fun _ -> Emc_util.Rng.float rng 10.0 -. 5.0) in
      let b = Mat.mul_vec a x in
      let x' = Mat.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x')

let prop_transpose_mul =
  QCheck.Test.make ~name:"(AB)t = Bt At" ~count:100 QCheck.(int_range 0 10_000) (fun seed ->
      let rng = Emc_util.Rng.create seed in
      let a = random_mat rng 3 4 and b = random_mat rng 4 2 in
      Mat.equal ~eps:1e-10
        (Mat.transpose (Mat.mul a b))
        (Mat.mul (Mat.transpose b) (Mat.transpose a)))

(* [gram] adds four entries at a time; each must keep the bits of a
   one-entry loop that adds its products over the rows in order. The
   entries are random doubles, so the sums round, and c runs below and
   across every residue mod 4. *)
let prop_gram_bits =
  QCheck.Test.make ~name:"gram matches a one-entry loop bit for bit" ~count:200
    QCheck.(triple (int_range 1 40) (int_range 1 13) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Emc_util.Rng.create seed in
      let x = random_mat rng r c in
      let g = Mat.gram x in
      let same = ref true in
      for i = 0 to c - 1 do
        for j = 0 to c - 1 do
          let acc = ref 0.0 in
          for k = 0 to r - 1 do
            acc := !acc +. (Mat.get x k i *. Mat.get x k j)
          done;
          if Int64.bits_of_float (Mat.get g i j) <> Int64.bits_of_float !acc then same := false
        done
      done;
      !same)

(* The factor's rows, each entry from [Mat.get], subtracting its products
   over k in ascending order: the loop [Mat.cholesky_rows] must equal bit
   for bit, whether it starts at row 0 or resumes after a prefix of k rows
   copied from this reference. *)
let reference_cholesky a n =
  let l = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (l.(i).(k) *. l.(j).(k))
      done;
      l.(i).(j) <- (if i = j then sqrt !acc else !acc /. l.(j).(j))
    done
  done;
  l

let prop_cholesky_resume_bits =
  QCheck.Test.make ~name:"cholesky from row 0 and resumed matches a get loop bit for bit"
    ~count:200
    QCheck.(triple (int_range 1 40) (int_range 0 40) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let k = k mod (n + 1) in
      let a = random_spd (Emc_util.Rng.create seed) n in
      let want = reference_cholesky a n in
      let same l =
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let w = if j <= i then want.(i).(j) else 0.0 in
            if Int64.bits_of_float (Mat.get l i j) <> Int64.bits_of_float w then ok := false
          done
        done;
        !ok
      in
      let resumed = Mat.create n n in
      for i = 0 to k - 1 do
        for j = 0 to i do
          Mat.set resumed i j want.(i).(j)
        done
      done;
      Mat.cholesky_rows a resumed ~from:k ~upto:n;
      same (Mat.cholesky a) && same resumed)

let suite =
  [
    ("identity mul", `Quick, test_identity_mul);
    ("transpose", `Quick, test_transpose);
    ("mul known", `Quick, test_mul_known);
    ("det known", `Quick, test_det_known);
    ("det product rule", `Quick, test_det_product);
    ("log det", `Quick, test_log_det);
    ("solve roundtrip", `Quick, test_solve_roundtrip);
    ("solve singular", `Quick, test_solve_singular);
    ("inverse", `Quick, test_inverse);
    ("cholesky", `Quick, test_cholesky);
    ("cholesky not PD", `Quick, test_cholesky_not_pd);
    ("solve spd", `Quick, test_solve_spd);
    ("lstsq square", `Quick, test_lstsq_square);
    ("lstsq overdetermined", `Quick, test_lstsq_overdetermined);
    ("lstsq rank deficient", `Quick, test_lstsq_rank_deficient);
    ("gram", `Quick, test_gram);
    ("of_rows validation", `Quick, test_of_rows_validation);
    QCheck_alcotest.to_alcotest prop_solve_random;
    QCheck_alcotest.to_alcotest prop_transpose_mul;
    QCheck_alcotest.to_alcotest prop_gram_bits;
    QCheck_alcotest.to_alcotest prop_cholesky_resume_bits;
  ]
