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

(* [gram] adds four entries at a time, and [tmul_vec] walks [x] a row at
   a time; each entry must keep the bits of a one-entry loop that adds its
   products over the rows in order. The entries are random doubles, so the
   sums round, and c runs below and across every residue mod 4. *)
let prop_gram_bits =
  QCheck.Test.make ~name:"gram matches a one-entry loop bit for bit" ~count:200
    QCheck.(triple (int_range 1 40) (int_range 1 13) (int_range 0 10_000))
    (fun (r, c, seed) ->
      let rng = Emc_util.Rng.create seed in
      let x = random_mat rng r c in
      let v = Array.init r (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
      let g = Mat.gram x and xtv = Mat.tmul_vec x v in
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let ok = ref true in
      for i = 0 to c - 1 do
        for j = 0 to c - 1 do
          let acc = ref 0.0 in
          for k = 0 to r - 1 do
            acc := !acc +. (Mat.get x k i *. Mat.get x k j)
          done;
          if not (same (Mat.get g i j) !acc) then ok := false
        done;
        let acc = ref 0.0 in
        for k = 0 to r - 1 do
          acc := !acc +. (Mat.get x k i *. v.(k))
        done;
        if not (same xtv.(i) !acc) then ok := false
      done;
      !ok)

(* The one-row loop over [Mat.get] and [Mat.set]: each entry starts from
   its entry of [a] and subtracts its products over k in ascending order,
   and a diagonal that is not positive raises before it is written. The
   loop [Mat.cholesky_rows] runs, two rows per pass, must write the same
   bits. *)
let reference_cholesky_rows a l ~from ~upto =
  for i = from to upto - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if j < i then Mat.set l i j (!acc /. Mat.get l j j)
      else if !acc <= 0.0 then failwith "Mat.cholesky: matrix not positive definite"
      else Mat.set l i i (sqrt !acc)
    done
  done

let same_bits ?(skip = -1) n x y =
  let ok = ref true in
  for i = 0 to n - 1 do
    if i <> skip then
      for j = 0 to n - 1 do
        if Int64.bits_of_float (Mat.get x i j) <> Int64.bits_of_float (Mat.get y i j) then
          ok := false
      done
  done;
  !ok

(* Blocks [from, upto) of every length, so of both parities, from any
   start row, and MARS's two-row extension [~from:m ~upto:(m + 2)]. The
   factor starts with the reference's rows below [from] and random values
   everywhere else, which both loops must leave as they are outside their
   rows. A block whose row f has a negative diagonal raises the same
   [Failure] after the same writes; only row f + 1, which the blocked loop
   factors in the same pass as row f, may differ. *)
let prop_cholesky_resume_bits =
  QCheck.Test.make ~name:"cholesky from row 0 and resumed matches a get loop bit for bit"
    ~count:300
    QCheck.(quad (int_range 1 40) (int_range 0 40) (int_range 0 40) (int_range 0 10_000))
    (fun (n, from, len, seed) ->
      let from = from mod (n + 1) in
      let upto = from + (len mod (n - from + 1)) in
      let rng = Emc_util.Rng.create seed in
      let a = random_spd rng n in
      let want = Mat.create n n in
      reference_cholesky_rows a want ~from:0 ~upto:n;
      let agree ?skip a ~from ~upto =
        let junk = random_mat rng n n in
        let start () =
          Mat.init n n (fun i j -> Mat.get (if i < from && j <= i then want else junk) i j)
        in
        let got = start () and expected = start () in
        let outcome f = match f () with () -> None | exception Failure e -> Some e in
        let e = outcome (fun () -> Mat.cholesky_rows a got ~from ~upto) in
        e = outcome (fun () -> reference_cholesky_rows a expected ~from ~upto)
        && (skip = None || e = Some "Mat.cholesky: matrix not positive definite")
        && same_bits ?skip n got expected
      in
      let m = max 0 (min from (n - 2)) in
      same_bits n (Mat.cholesky a) want
      && agree a ~from ~upto
      && (n < 2 || agree a ~from:m ~upto:(m + 2))
      && (upto = from
         ||
         let f = from + (seed mod (upto - from)) in
         let bad = Mat.init n n (fun i j -> if i = f && j = f then -1.0 else Mat.get a i j) in
         agree ~skip:(f + 1) bad ~from ~upto))

(* LU with partial pivoting over [Mat.get] and [Mat.set], and its two
   triangular solves into fresh arrays: [Mat.inverse], [Mat.solve],
   [Mat.log_det] and [Mat.lu_det] must give its bits. *)
let reference_lu a n =
  let lu = Mat.init n n (Mat.get a) in
  let perm = Array.init n Fun.id and sign = ref 1.0 in
  let rec step k =
    if k = n then Some (lu, perm, !sign)
    else begin
      let pivot = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !pivot k) then pivot := i
      done;
      if !pivot <> k then begin
        for j = 0 to n - 1 do
          let t = Mat.get lu k j in
          Mat.set lu k j (Mat.get lu !pivot j);
          Mat.set lu !pivot j t
        done;
        let t = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- t;
        sign := -. !sign
      end;
      let pkk = Mat.get lu k k in
      if Float.abs pkk < 1e-300 then None
      else begin
        for i = k + 1 to n - 1 do
          let f = Mat.get lu i k /. pkk in
          Mat.set lu i k f;
          for j = k + 1 to n - 1 do
            Mat.set lu i j (Mat.get lu i j -. (f *. Mat.get lu k j))
          done
        done;
        step (k + 1)
      end
    end
  in
  step 0

let reference_lu_solve lu perm n b =
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(perm.(i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get lu i j *. y.(j))
    done;
    y.(i) <- !acc
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get lu i j *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get lu i i
  done;
  x

(* Dense random matrices, ones with a zero diagonal (a row swap at the
   first step), a cyclic row shift of a diagonal (a swap at every step),
   and singular ones: a repeated row, or a zero column. *)
let lu_case kind n rng =
  let r = random_mat rng n n in
  match kind with
  | 0 -> r
  | 1 -> Mat.init n n (fun i j -> if i = j then 0.0 else Mat.get r i j)
  | 2 ->
      Mat.init n n (fun i j ->
          if j = (i + 1) mod n then 1.0 +. Float.abs (Mat.get r i j) else 0.0)
  | 3 -> Mat.init n n (fun i j -> Mat.get r (if i = n - 1 then 0 else i) j)
  | _ -> Mat.init n n (fun i j -> if j = n / 2 then 0.0 else Mat.get r i j)

let prop_lu_bits =
  QCheck.Test.make ~name:"inverse, solve and log det match a get-indexed LU bit for bit"
    ~count:300
    QCheck.(triple (int_range 1 30) (int_range 0 4) (int_range 0 10_000))
    (fun (n, kind, seed) ->
      let rng = Emc_util.Rng.create seed in
      let a = lu_case kind n rng in
      let b = Array.init n (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
      let bits = Int64.bits_of_float in
      let raises text f = match f () with _ -> false | exception Failure e -> e = text in
      match reference_lu a n with
      | None ->
          raises "Mat.inverse: singular matrix" (fun () -> Mat.inverse a)
          && raises "Mat.solve: singular matrix" (fun () -> Mat.solve a b)
          && Mat.log_det a = neg_infinity
          && bits (Mat.lu_det a) = bits 0.0
      | Some (lu, perm, sign) ->
          let inv = Mat.create n n in
          for j = 0 to n - 1 do
            let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
            Array.iteri (fun i v -> Mat.set inv i j v) (reference_lu_solve lu perm n e)
          done;
          let log_det = ref 0.0 and det = ref sign in
          for i = 0 to n - 1 do
            log_det := !log_det +. log (Float.abs (Mat.get lu i i));
            det := !det *. Mat.get lu i i
          done;
          same_bits n (Mat.inverse a) inv
          && Array.for_all2
               (fun x y -> bits x = bits y)
               (Mat.solve a b) (reference_lu_solve lu perm n b)
          && bits (Mat.log_det a) = bits !log_det
          && bits (Mat.lu_det a) = bits !det)

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
    QCheck_alcotest.to_alcotest prop_lu_bits;
  ]
