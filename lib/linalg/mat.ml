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
let cols m = m.c
let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let copy m = { m with a = Array.copy m.a }
let row m i = Array.sub m.a (i * m.c) m.c
let col m j = Array.init m.r (fun i -> get m i j)

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
let sub = map2 ( -. )
let scale s m = { m with a = Array.map (fun x -> s *. x) m.a }

let mul_vec m v =
  if m.c <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let gram x =
  let g = create x.c x.c in
  for i = 0 to x.c - 1 do
    for j = i to x.c - 1 do
      let acc = ref 0.0 in
      for k = 0 to x.r - 1 do
        acc := !acc +. (get x k i *. get x k j)
      done;
      set g i j !acc;
      set g j i !acc
    done
  done;
  g

(* LU decomposition with partial pivoting, in place on a copy.
   Returns (lu, perm, sign) or None if singular. *)
let lu_decompose m =
  if m.r <> m.c then invalid_arg "Mat: square matrix required";
  let n = m.r in
  let lu = copy m in
  let perm = Array.init n Fun.id in
  let sign = ref 1.0 in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       (* pivot *)
       let pivot = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs (get lu i k) > Float.abs (get lu !pivot k) then pivot := i
       done;
       if !pivot <> k then begin
         for j = 0 to n - 1 do
           let tmp = get lu k j in
           set lu k j (get lu !pivot j);
           set lu !pivot j tmp
         done;
         let tmp = perm.(k) in
         perm.(k) <- perm.(!pivot);
         perm.(!pivot) <- tmp;
         sign := -. !sign
       end;
       let pkk = get lu k k in
       if Float.abs pkk < 1e-300 then begin
         singular := true;
         raise Exit
       end;
       for i = k + 1 to n - 1 do
         let f = get lu i k /. pkk in
         set lu i k f;
         for j = k + 1 to n - 1 do
           set lu i j (get lu i j -. (f *. get lu k j))
         done
       done
     done
   with Exit -> ());
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

let lu_solve (lu, perm, _sign) b =
  let n = lu.r in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(perm.(i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (get lu i j *. y.(j))
    done;
    y.(i) <- !acc
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get lu i j *. x.(j))
    done;
    x.(i) <- !acc /. get lu i i
  done;
  x

let solve m b =
  if m.r <> Array.length b then invalid_arg "Mat.solve: dimension mismatch";
  match lu_decompose m with
  | None -> failwith "Mat.solve: singular matrix"
  | Some lu -> lu_solve lu b

let inverse m =
  match lu_decompose m with
  | None -> failwith "Mat.inverse: singular matrix"
  | Some lu ->
      let n = m.r in
      let inv = create n n in
      for j = 0 to n - 1 do
        let e = Array.make n 0.0 in
        e.(j) <- 1.0;
        let x = lu_solve lu e in
        for i = 0 to n - 1 do
          set inv i j x.(i)
        done
      done;
      inv

let cholesky m =
  if m.r <> m.c then invalid_arg "Mat.cholesky: square matrix required";
  let n = m.r in
  let l = create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (get m i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !acc <= 0.0 then failwith "Mat.cholesky: matrix not positive definite";
        set l i i (sqrt !acc)
      end
      else set l i j (!acc /. get l j j)
    done
  done;
  l

let solve_spd m b =
  let l = cholesky m in
  let n = rows m in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get l i j *. y.(j))
    done;
    y.(i) <- !acc /. get l i i
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get l j i *. x.(j))
    done;
    x.(i) <- !acc /. get l i i
  done;
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

let pp fmt m =
  for i = 0 to m.r - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.c - 1 do
      Format.fprintf fmt " %+.4g" (get m i j)
    done;
    Format.fprintf fmt " ]@\n"
  done
