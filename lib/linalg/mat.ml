type t = { r : int; c : int; a : float array }

let create r c =
  if r <= 0 || c <= 0 then invalid_arg "Mat.create: non-positive dimension";
  { r; c; a = Array.make (r * c) 0.0 }

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.a.((i * c) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Mat.of_rows: no rows";
  let c = Array.length rows.(0) in
  if c = 0 then invalid_arg "Mat.of_rows: empty row";
  Array.iter (fun row -> if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows") rows;
  init r c (fun i j -> rows.(i).(j))

let rows m = m.r
let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let copy m = { m with a = Array.copy m.a }

let transpose m = init m.c m.r (fun i j -> get m j i)

let mul x y =
  if x.c <> y.r then invalid_arg "Mat.mul: dimension mismatch";
  let z = create x.r y.c in
  for i = 0 to x.r - 1 do
    for k = 0 to x.c - 1 do
      let xik = get x i k in
      if xik <> 0.0 then
        for j = 0 to y.c - 1 do
          z.a.((i * z.c) + j) <- z.a.((i * z.c) + j) +. (xik *. get y k j)
        done
    done
  done;
  z

let map2 f x y =
  if x.r <> y.r || x.c <> y.c then invalid_arg "Mat.map2: dimension mismatch";
  { x with a = Array.init (Array.length x.a) (fun i -> f x.a.(i) y.a.(i)) }

let add = map2 ( +. )
let scale s m = { m with a = Array.map (fun x -> s *. x) m.a }

(* From here to [solve_spd], the inner loops of the products, the LU and
   the Cholesky read and write unchecked. A [t] is abstract and every
   constructor allocates its [r * c] cells, so a matrix's own cells need
   no check; each function checks at entry that its other operands fit
   before the first unchecked access. *)

let mul_vec m v =
  if m.c <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  let c = m.c and a = m.a in
  Array.init m.r (fun i ->
      let row = i * c in
      let acc = ref 0.0 in
      for j = 0 to c - 1 do
        acc := !acc +. (Array.unsafe_get a (row + j) *. Array.unsafe_get v j)
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
    let row = k * c and vk = Array.unsafe_get v k in
    for j = 0 to c - 1 do
      Array.unsafe_set out j (Array.unsafe_get out j +. (Array.unsafe_get a (row + j) *. vk))
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
  let ga = g.a in
  for i = 0 to c - 1 do
    let j = ref i in
    while !j + 3 < c do
      let j0 = !j in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for k = 0 to x.r - 1 do
        let row = k * c in
        let xki = Array.unsafe_get a (row + i) in
        s0 := !s0 +. (xki *. Array.unsafe_get a (row + j0));
        s1 := !s1 +. (xki *. Array.unsafe_get a (row + j0 + 1));
        s2 := !s2 +. (xki *. Array.unsafe_get a (row + j0 + 2));
        s3 := !s3 +. (xki *. Array.unsafe_get a (row + j0 + 3))
      done;
      Array.unsafe_set ga ((i * c) + j0) !s0;
      Array.unsafe_set ga ((j0 * c) + i) !s0;
      Array.unsafe_set ga ((i * c) + j0 + 1) !s1;
      Array.unsafe_set ga (((j0 + 1) * c) + i) !s1;
      Array.unsafe_set ga ((i * c) + j0 + 2) !s2;
      Array.unsafe_set ga (((j0 + 2) * c) + i) !s2;
      Array.unsafe_set ga ((i * c) + j0 + 3) !s3;
      Array.unsafe_set ga (((j0 + 3) * c) + i) !s3;
      j := j0 + 4
    done;
    for j = !j to c - 1 do
      let s = ref 0.0 in
      for k = 0 to x.r - 1 do
        let row = k * c in
        s := !s +. (Array.unsafe_get a (row + i) *. Array.unsafe_get a (row + j))
      done;
      Array.unsafe_set ga ((i * c) + j) !s;
      Array.unsafe_set ga ((j * c) + i) !s
    done
  done;
  g

(* LU decomposition with partial pivoting, in place on a copy, through row
   offsets into the flat array. Returns (lu, perm, sign) or None if
   singular; [perm] is a permutation of [0 .. n-1]. *)
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
      if
        Float.abs (Array.unsafe_get a ((i * n) + k0))
        > Float.abs (Array.unsafe_get a ((!pivot * n) + k0))
      then pivot := i
    done;
    if !pivot <> k0 then begin
      let rp = !pivot * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get a (rk + j) in
        Array.unsafe_set a (rk + j) (Array.unsafe_get a (rp + j));
        Array.unsafe_set a (rp + j) tmp
      done;
      let tmp = perm.(k0) in
      perm.(k0) <- perm.(!pivot);
      perm.(!pivot) <- tmp;
      sign := -. !sign
    end;
    let pkk = Array.unsafe_get a (rk + k0) in
    if Float.abs pkk < 1e-300 then singular := true
    else
      for i = k0 + 1 to n - 1 do
        let ri = i * n in
        let f = Array.unsafe_get a (ri + k0) /. pkk in
        Array.unsafe_set a (ri + k0) f;
        for j = k0 + 1 to n - 1 do
          Array.unsafe_set a (ri + j)
            (Array.unsafe_get a (ri + j) -. (f *. Array.unsafe_get a (rk + j)))
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
  if Array.length b < n || Array.length x < n then invalid_arg "Mat.lu_solve: dimension mismatch";
  for i = 0 to n - 1 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get b (Array.unsafe_get perm i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get a (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !acc
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get a (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Array.unsafe_get a (ri + i))
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
      let ia = inv.a in
      let e = Array.make n 0.0 and x = Array.make n 0.0 in
      for j = 0 to n - 1 do
        e.(j) <- 1.0;
        lu_solve lu e x;
        e.(j) <- 0.0;
        for i = 0 to n - 1 do
          Array.unsafe_set ia ((i * n) + j) (Array.unsafe_get x i)
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
      let s0 = ref (Array.unsafe_get a (r0 + j)) and s1 = ref (Array.unsafe_get a (r1 + j)) in
      for k = 0 to j - 1 do
        let ljk = Array.unsafe_get la (rj + k) in
        s0 := !s0 -. (Array.unsafe_get la (r0 + k) *. ljk);
        s1 := !s1 -. (Array.unsafe_get la (r1 + k) *. ljk)
      done;
      let ljj = Array.unsafe_get la (rj + j) in
      Array.unsafe_set la (r0 + j) (!s0 /. ljj);
      Array.unsafe_set la (r1 + j) (!s1 /. ljj)
    done;
    let s0 = ref (Array.unsafe_get a (r0 + i0))
    and s1 = ref (Array.unsafe_get a (r1 + i0))
    and s2 = ref (Array.unsafe_get a (r1 + i0 + 1)) in
    for k = 0 to i0 - 1 do
      let l0 = Array.unsafe_get la (r0 + k) and l1 = Array.unsafe_get la (r1 + k) in
      s0 := !s0 -. (l0 *. l0);
      s1 := !s1 -. (l1 *. l0);
      s2 := !s2 -. (l1 *. l1)
    done;
    if !s0 <= 0.0 then not_positive_definite ();
    let l00 = sqrt !s0 in
    Array.unsafe_set la (r0 + i0) l00;
    let l10 = !s1 /. l00 in
    Array.unsafe_set la (r1 + i0) l10;
    let s2 = !s2 -. (l10 *. l10) in
    if s2 <= 0.0 then not_positive_definite ();
    Array.unsafe_set la (r1 + i0 + 1) (sqrt s2);
    i := i0 + 2
  done;
  if !i < upto then begin
    let i0 = !i in
    let r0 = i0 * n in
    for j = 0 to i0 do
      let rj = j * n in
      let s = ref (Array.unsafe_get a (r0 + j)) in
      for k = 0 to j - 1 do
        s := !s -. (Array.unsafe_get la (r0 + k) *. Array.unsafe_get la (rj + k))
      done;
      if j < i0 then Array.unsafe_set la (r0 + j) (!s /. Array.unsafe_get la (rj + j))
      else if !s <= 0.0 then not_positive_definite ()
      else Array.unsafe_set la (r0 + i0) (sqrt !s)
    done
  end

let cholesky m =
  if m.r <> m.c then invalid_arg "Mat.cholesky: square matrix required";
  let l = create m.r m.r in
  cholesky_rows m l ~from:0 ~upto:m.r;
  l

(* Forward substitution into [x], then back substitution in place: the
   cells each step reads are ones it has not overwritten yet. *)
let cholesky_solve l n b x =
  if l.r <> l.c || n < 0 || n > l.r || Array.length b < n || Array.length x < n then
    invalid_arg "Mat.cholesky_solve: dimension mismatch";
  let c = l.c and la = l.a in
  for i = 0 to n - 1 do
    let ri = i * c in
    let acc = ref (Array.unsafe_get b i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get la (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Array.unsafe_get la (ri + i))
  done;
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get la ((j * c) + i) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Array.unsafe_get la ((i * c) + i))
  done

let solve_spd m b =
  let l = cholesky m in
  let x = Array.make m.r 0.0 in
  cholesky_solve l m.r b x;
  x

(* Householder QR least squares. Handles rank deficiency by zeroing
   coefficients of dependent columns. *)
let lstsq a b =
  let m = a.r and n = a.c in
  if m <> Array.length b then invalid_arg "Mat.lstsq: dimension mismatch";
  let r = copy a in
  let qtb = Array.copy b in
  let diag_ok = Array.make n true in
  let kmax = Stdlib.min m n in
  for k = 0 to kmax - 1 do
    (* Householder vector for column k below row k. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let x = get r i k in
      norm := !norm +. (x *. x)
    done;
    let norm = sqrt !norm in
    if norm < 1e-12 then diag_ok.(k) <- false
    else begin
      let alpha = if get r k k > 0.0 then -.norm else norm in
      let v = Array.make (m - k) 0.0 in
      v.(0) <- get r k k -. alpha;
      for i = k + 1 to m - 1 do
        v.(i - k) <- get r i k
      done;
      let vnorm2 = ref 0.0 in
      Array.iter (fun x -> vnorm2 := !vnorm2 +. (x *. x)) v;
      if !vnorm2 > 1e-300 then begin
        (* apply H = I - 2 v vᵀ / (vᵀv) to remaining columns of r and to qtb *)
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = k to m - 1 do
            dot := !dot +. (v.(i - k) *. get r i j)
          done;
          let f = 2.0 *. !dot /. !vnorm2 in
          for i = k to m - 1 do
            set r i j (get r i j -. (f *. v.(i - k)))
          done
        done;
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (v.(i - k) *. qtb.(i))
        done;
        let f = 2.0 *. !dot /. !vnorm2 in
        for i = k to m - 1 do
          qtb.(i) <- qtb.(i) -. (f *. v.(i - k))
        done
      end;
      set r k k alpha;
      if Float.abs alpha < 1e-10 then diag_ok.(k) <- false
    end
  done;
  (* back substitution on the upper triangle *)
  let x = Array.make n 0.0 in
  for i = kmax - 1 downto 0 do
    if diag_ok.(i) then begin
      let acc = ref qtb.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get r i j *. x.(j))
      done;
      x.(i) <- !acc /. get r i i
    end
  done;
  x

let equal ?(eps = 1e-9) x y =
  x.r = y.r && x.c = y.c
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= eps) x.a y.a
