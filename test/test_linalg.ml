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

(* ---- the loops above, as they were before they read unchecked ---- *)

(* A verbatim copy of the checked kernels, on a record of the same shape
   as [Mat.t]: each unchecked loop must give its bits, and reordering any
   sum in one must fail a property below. *)
module Parent = struct
  type t = { r : int; c : int; a : float array }

  let create r c =
    if r <= 0 || c <= 0 then invalid_arg "Mat.create: non-positive dimension";
    { r; c; a = Array.make (r * c) 0.0 }

  let get m i j = m.a.((i * m.c) + j)
  let copy m = { m with a = Array.copy m.a }

  let mul_vec m v =
    if m.c <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
    Array.init m.r (fun i ->
        let acc = ref 0.0 in
        for j = 0 to m.c - 1 do
          acc := !acc +. (get m i j *. v.(j))
        done;
        !acc)

  (* xᵀv one row of [x] at a time: each column's sum adds its products over
     the rows in order, as [mul_vec (transpose x) v] does, without building
     the transpose. *)
  let tmul_vec x v =
    if x.r <> Array.length v then invalid_arg "Mat.tmul_vec: dimension mismatch";
    let c = x.c and a = x.a in
    let out = Array.make c 0.0 in
    for k = 0 to x.r - 1 do
      let row = k * c and vk = v.(k) in
      for j = 0 to c - 1 do
        out.(j) <- out.(j) +. (a.(row + j) *. vk)
      done
    done;
    out

  (* Four entries of row i at a time, each in its own accumulator: the sums
     are independent, so they overlap in the pipeline instead of queueing on
     one add, and each still adds its products over the rows k in order,
     which keeps every entry's bits those of a one-entry loop. *)
  let gram x =
    let c = x.c and a = x.a in
    let g = create c c in
    let put i j v =
      g.a.((i * c) + j) <- v;
      g.a.((j * c) + i) <- v
    in
    for i = 0 to c - 1 do
      let j = ref i in
      while !j + 3 < c do
        let j0 = !j in
        let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
        for k = 0 to x.r - 1 do
          let row = k * c in
          let xki = a.(row + i) in
          s0 := !s0 +. (xki *. a.(row + j0));
          s1 := !s1 +. (xki *. a.(row + j0 + 1));
          s2 := !s2 +. (xki *. a.(row + j0 + 2));
          s3 := !s3 +. (xki *. a.(row + j0 + 3))
        done;
        put i j0 !s0;
        put i (j0 + 1) !s1;
        put i (j0 + 2) !s2;
        put i (j0 + 3) !s3;
        j := j0 + 4
      done;
      for j = !j to c - 1 do
        let s = ref 0.0 in
        for k = 0 to x.r - 1 do
          let row = k * c in
          s := !s +. (a.(row + i) *. a.(row + j))
        done;
        put i j !s
      done
    done;
    g

  (* LU decomposition with partial pivoting, in place on a copy, through row
     offsets into the flat array. Returns (lu, perm, sign) or None if
     singular. *)
  let lu_decompose m =
    if m.r <> m.c then invalid_arg "Mat: square matrix required";
    let n = m.r in
    let lu = copy m in
    let a = lu.a in
    let perm = Array.init n Fun.id in
    let sign = ref 1.0 in
    let singular = ref false in
    let k = ref 0 in
    while (not !singular) && !k < n do
      let k0 = !k in
      let rk = k0 * n in
      let pivot = ref k0 in
      for i = k0 + 1 to n - 1 do
        if Float.abs a.((i * n) + k0) > Float.abs a.((!pivot * n) + k0) then pivot := i
      done;
      if !pivot <> k0 then begin
        let rp = !pivot * n in
        for j = 0 to n - 1 do
          let tmp = a.(rk + j) in
          a.(rk + j) <- a.(rp + j);
          a.(rp + j) <- tmp
        done;
        let tmp = perm.(k0) in
        perm.(k0) <- perm.(!pivot);
        perm.(!pivot) <- tmp;
        sign := -. !sign
      end;
      let pkk = a.(rk + k0) in
      if Float.abs pkk < 1e-300 then singular := true
      else
        for i = k0 + 1 to n - 1 do
          let ri = i * n in
          let f = a.(ri + k0) /. pkk in
          a.(ri + k0) <- f;
          for j = k0 + 1 to n - 1 do
            a.(ri + j) <- a.(ri + j) -. (f *. a.(rk + j))
          done
        done;
      k := k0 + 1
    done;
    if !singular then None else Some (lu, perm, !sign)

  let lu_det m =
    match lu_decompose m with
    | None -> 0.0
    | Some (lu, _, sign) ->
        let d = ref sign in
        for i = 0 to lu.r - 1 do
          d := !d *. get lu i i
        done;
        !d

  let log_det m =
    match lu_decompose m with
    | None -> neg_infinity
    | Some (lu, _, _) ->
        let d = ref 0.0 in
        (try
           for i = 0 to lu.r - 1 do
             let p = Float.abs (get lu i i) in
             if p = 0.0 then raise Exit;
             d := !d +. log p
           done
         with Exit -> d := neg_infinity);
        !d

  (* Forward substitution into [x], then back substitution in place: the
     cells each step reads are ones it has not overwritten yet. [b] is read
     through the permutation, so [x] must not be [b]. *)
  let lu_solve (lu, perm, _sign) b x =
    let n = lu.r and a = lu.a in
    for i = 0 to n - 1 do
      let ri = i * n in
      let acc = ref b.(perm.(i)) in
      for j = 0 to i - 1 do
        acc := !acc -. (a.(ri + j) *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let ri = i * n in
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (a.(ri + j) *. x.(j))
      done;
      x.(i) <- !acc /. a.(ri + i)
    done

  let solve m b =
    if m.r <> Array.length b then invalid_arg "Mat.solve: dimension mismatch";
    match lu_decompose m with
    | None -> failwith "Mat.solve: singular matrix"
    | Some lu ->
        let x = Array.make m.r 0.0 in
        lu_solve lu b x;
        x

  (* One unit vector and one solution buffer serve every column. *)
  let inverse m =
    match lu_decompose m with
    | None -> failwith "Mat.inverse: singular matrix"
    | Some lu ->
        let n = m.r in
        let inv = create n n in
        let e = Array.make n 0.0 and x = Array.make n 0.0 in
        for j = 0 to n - 1 do
          e.(j) <- 1.0;
          lu_solve lu e x;
          e.(j) <- 0.0;
          for i = 0 to n - 1 do
            inv.a.((i * n) + j) <- x.(i)
          done
        done;
        inv

  let not_positive_definite () = failwith "Mat.cholesky: matrix not positive definite"


  (* Row i of the factor reads rows <= i of [m] and rows < i of [l] only, so
     the loop can start at any row whose predecessors are in place. Rows
     i and i + 1 are factored together: each load of row j feeds both rows'
     sums, and row i's own loads also feed entry (i + 1, i) and the first i
     products of row i + 1's diagonal. Every entry still starts from its
     entry of [m] and subtracts its products over k in ascending order, so
     its bits are those of a one-row loop. *)
  let cholesky_rows m l ~from ~upto =
    if m.r <> m.c || l.r <> m.r || l.c <> m.c then
      invalid_arg "Mat.cholesky_rows: square matrices of one size required";
    if from < 0 || from > upto || upto > m.r then invalid_arg "Mat.cholesky_rows: row range";
    let n = m.c and a = m.a and la = l.a in
    let i = ref from in
    while !i + 1 < upto do
      let i0 = !i in
      let r0 = i0 * n in
      let r1 = r0 + n in
      for j = 0 to i0 - 1 do
        let rj = j * n in
        let s0 = ref a.(r0 + j) and s1 = ref a.(r1 + j) in
        for k = 0 to j - 1 do
          let ljk = la.(rj + k) in
          s0 := !s0 -. (la.(r0 + k) *. ljk);
          s1 := !s1 -. (la.(r1 + k) *. ljk)
        done;
        la.(r0 + j) <- !s0 /. la.(rj + j);
        la.(r1 + j) <- !s1 /. la.(rj + j)
      done;
      let s0 = ref a.(r0 + i0) and s1 = ref a.(r1 + i0) and s2 = ref a.(r1 + i0 + 1) in
      for k = 0 to i0 - 1 do
        let l0 = la.(r0 + k) and l1 = la.(r1 + k) in
        s0 := !s0 -. (l0 *. l0);
        s1 := !s1 -. (l1 *. l0);
        s2 := !s2 -. (l1 *. l1)
      done;
      if !s0 <= 0.0 then not_positive_definite ();
      la.(r0 + i0) <- sqrt !s0;
      let l10 = !s1 /. la.(r0 + i0) in
      la.(r1 + i0) <- l10;
      let s2 = !s2 -. (l10 *. l10) in
      if s2 <= 0.0 then not_positive_definite ();
      la.(r1 + i0 + 1) <- sqrt s2;
      i := i0 + 2
    done;
    if !i < upto then begin
      let i0 = !i in
      let r0 = i0 * n in
      for j = 0 to i0 do
        let rj = j * n in
        let s = ref a.(r0 + j) in
        for k = 0 to j - 1 do
          s := !s -. (la.(r0 + k) *. la.(rj + k))
        done;
        if j < i0 then la.(r0 + j) <- !s /. la.(rj + j)
        else if !s <= 0.0 then not_positive_definite ()
        else la.(r0 + i0) <- sqrt !s
      done
    end

  let cholesky_solve l n b x =
    if l.r <> l.c || n < 0 || n > l.r || Array.length b < n || Array.length x < n then
      invalid_arg "Mat.cholesky_solve: dimension mismatch";
    let c = l.c and la = l.a in
    for i = 0 to n - 1 do
      let ri = i * c in
      let acc = ref b.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (la.(ri + j) *. x.(j))
      done;
      x.(i) <- !acc /. la.(ri + i)
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (la.((j * c) + i) *. x.(j))
      done;
      x.(i) <- !acc /. la.((i * c) + i)
    done
end

let to_parent m r c = { Parent.r; c; a = Array.init (r * c) (fun k -> Mat.get m (k / c) (k mod c)) }
let bits_eq = Helpers.bits_eq
let all_bits = Helpers.all_bits
let mat_bits m (p : Parent.t) = all_bits (to_parent m p.r p.c).a p.a

(* dimensions of 1 (so 1×1), odd and even, and column counts on every
   residue mod 4 *)
let dim hi = QCheck.Gen.(frequency [ (1, return 1); (4, int_range 1 hi) ])

let prop_products_parent_bits =
  QCheck.Test.make ~name:"mul_vec, tmul_vec and gram keep their checked parents' bits" ~count:300
    QCheck.(make Gen.(triple (dim 40) (dim 13) (int_range 0 10_000)))
    (fun (r, c, seed) ->
      let rng = Emc_util.Rng.create seed in
      let x = random_mat rng r c in
      let u = Array.init c (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)
      and v = Array.init r (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
      let px = to_parent x r c in
      all_bits (Mat.mul_vec x u) (Parent.mul_vec px u)
      && all_bits (Mat.tmul_vec x v) (Parent.tmul_vec px v)
      && mat_bits (Mat.gram x) (Parent.gram px))

(* The parent's [cholesky_rows] from the same start (its rows below [from]
   and junk elsewhere) over every block [from, upto), a not positive
   definite row included, then [cholesky_solve] on every leading block,
   into a fresh array and in place. *)
let prop_cholesky_parent_bits =
  QCheck.Test.make ~name:"cholesky_rows and cholesky_solve keep their checked parents' bits"
    ~count:300
    QCheck.(make Gen.(quad (dim 40) (int_range 0 40) (int_range 0 40) (int_range 0 10_000)))
    (fun (n, from, len, seed) ->
      let from = from mod (n + 1) in
      let upto = from + (len mod (n - from + 1)) in
      let rng = Emc_util.Rng.create seed in
      let a =
        if upto > from && seed mod 3 = 0 then
          let f = from + (seed mod (upto - from)) in
          let a = random_spd rng n in
          Mat.init n n (fun i j -> if i = f && j = f then -1.0 else Mat.get a i j)
        else random_spd rng n
      in
      let full = Parent.create n n in
      (try Parent.cholesky_rows (to_parent a n n) full ~from:0 ~upto:n with Failure _ -> ());
      let junk = random_mat rng n n in
      let start =
        Mat.init n n (fun i j ->
            if i < from && j <= i then full.Parent.a.((i * n) + j) else Mat.get junk i j)
      in
      let got = Mat.init n n (Mat.get start) and want = to_parent start n n in
      let outcome f = match f () with () -> None | exception Failure e -> Some e in
      let e = outcome (fun () -> Mat.cholesky_rows a got ~from ~upto) in
      let e' = outcome (fun () -> Parent.cholesky_rows (to_parent a n n) want ~from ~upto) in
      let solves =
        e <> None
        ||
        let k = seed mod (n + 1) in
        let b = Array.init n (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
        let x = Array.make n 0.0 and x' = Array.make n 0.0 in
        Mat.cholesky_solve got k b x;
        Parent.cholesky_solve want k b x';
        let bi = Array.copy b and bi' = Array.copy b in
        Mat.cholesky_solve got k bi bi;
        Parent.cholesky_solve want k bi' bi';
        all_bits x x' && all_bits bi bi'
      in
      e = e' && mat_bits got want && solves)

(* LU on every [lu_case], singular ones included: [inverse], [log_det],
   [lu_det] and [solve] against the parent's. *)
let prop_lu_parent_bits =
  QCheck.Test.make ~name:"inverse, log_det, lu_det and solve keep their checked parents' bits"
    ~count:300
    QCheck.(make Gen.(triple (dim 30) (int_range 0 4) (int_range 0 10_000)))
    (fun (n, kind, seed) ->
      let rng = Emc_util.Rng.create seed in
      let a = lu_case kind n rng in
      let pa = to_parent a n n in
      let b = Array.init n (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
      let inv = try Some (Mat.inverse a) with Failure _ -> None in
      let inv' = try Some (Parent.inverse pa) with Failure _ -> None in
      let sol = try Some (Mat.solve a b) with Failure _ -> None in
      let sol' = try Some (Parent.solve pa b) with Failure _ -> None in
      (match (inv, inv') with
      | Some m, Some p -> mat_bits m p
      | None, None -> true
      | _ -> false)
      && (match (sol, sol') with
         | Some x, Some y -> all_bits x y
         | None, None -> true
         | _ -> false)
      && bits_eq (Mat.log_det a) (Parent.log_det pa)
      && bits_eq (Mat.lu_det a) (Parent.lu_det pa))

(* Each unchecked loop's entry check: an operand too short for the
   indices raises [Invalid_argument] before the loop reads or writes, so
   the output arrays keep their contents. [gram] has one operand, whose
   cells its own dimensions count. *)
let test_unchecked_entry_checks () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let x = Mat.init 2 3 (fun i j -> float_of_int ((3 * i) + j + 1)) in
  raises "mul_vec, a short vector" (fun () -> Mat.mul_vec x [| 1.0; 2.0 |]);
  raises "tmul_vec, a long vector" (fun () -> Mat.tmul_vec x [| 1.0; 2.0; 3.0 |]);
  let a = random_spd (Emc_util.Rng.create 3) 4 in
  let l = Mat.create 4 4 in
  raises "cholesky_rows, a factor of another size" (fun () ->
      Mat.cholesky_rows a (Mat.create 3 3) ~from:0 ~upto:3);
  raises "cholesky_rows, rows past the end" (fun () -> Mat.cholesky_rows a l ~from:0 ~upto:5);
  raises "cholesky_rows, a negative start" (fun () -> Mat.cholesky_rows a l ~from:(-1) ~upto:2);
  Alcotest.(check bool) "the factor is untouched" true (Mat.equal ~eps:0.0 l (Mat.create 4 4));
  Mat.cholesky_rows a l ~from:0 ~upto:4;
  let out = [| 7.0; 7.0; 7.0 |] in
  raises "cholesky_solve, a short solution" (fun () -> Mat.cholesky_solve l 4 [| 1.0; 2.0; 3.0; 4.0 |] out);
  raises "cholesky_solve, a short right-hand side" (fun () -> Mat.cholesky_solve l 4 [| 1.0 |] out);
  Alcotest.(check (array (float 0.0))) "the solution is untouched" [| 7.0; 7.0; 7.0 |] out;
  raises "solve, a short right-hand side" (fun () -> Mat.solve a [| 1.0; 2.0 |]);
  raises "inverse, a non-square matrix" (fun () -> Mat.inverse x);
  raises "log_det, a non-square matrix" (fun () -> Mat.log_det x)

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
    QCheck_alcotest.to_alcotest prop_products_parent_bits;
    QCheck_alcotest.to_alcotest prop_cholesky_parent_bits;
    QCheck_alcotest.to_alcotest prop_lu_parent_bits;
    ("unchecked loops refuse short operands first", `Quick, test_unchecked_entry_checks);
  ]
