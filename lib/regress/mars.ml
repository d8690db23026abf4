open Emc_linalg

(** Multivariate Adaptive Regression Splines (Friedman '91; paper §4.2).

    Basis functions are products of hinge functions
    [max(0, ±(x_d − t))], up to degree [max_degree] (2, matching the paper's
    two-factor-interaction scope). The forward pass greedily adds the
    reflected pair that most reduces training SSE, considering every current
    basis as a parent, every unused dimension, and knots at distinct data
    values; the backward pass prunes terms by GCV (the criterion polspline
    uses, §5 of the paper) and the best-GCV subset is refit and returned.

    The forward pass prices candidates from cached normal equations: the
    Gram entries and Xᵀy of the accepted columns are kept, so a candidate
    pair costs only its 2m+5 new dot products. The accepted columns'
    Cholesky rows are kept too: row i of a factor depends only on rows
    [<= i] of its system, so a candidate extends them by its own two rows
    ({!Mat.cholesky_rows} from row m) at O(m²) instead of factoring the
    whole system at O(m³). Every entry is the dot product, and every factor
    row the loop, that building the system anew would compute, in the same
    order, so the fitted bits do not depend on the cache. The backward pass
    and the final refit solve their subsets with the same solver from
    row 0. *)

type factor = Repr.factor = { dim : int; knot : float; positive : bool }

type basis = factor list (* empty = intercept *)

let basis_name names (b : basis) =
  match b with
  | [] -> "const"
  | fs ->
      String.concat " * "
        (List.map
           (fun f ->
             let n = names.(f.dim) in
             if f.positive then Printf.sprintf "h(%s-%.2f)" n f.knot
             else Printf.sprintf "h(%.2f-%s)" f.knot n)
           fs)

let ridge = 1e-9

(* The loops of [dot], [store_pair] and [solve] read and write unchecked.
   Each function first checks that every array holds the cells its
   indices reach, and raises [Invalid_argument] before the first
   unchecked access when one does not. *)

let[@inline] dot a b =
  let n = Array.length a in
  if Array.length b < n then invalid_arg "Mars.dot: dimension mismatch";
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (Array.unsafe_get a r *. Array.unsafe_get b r)
  done;
  !acc

(* Room for [cap] columns with their normal equations: [gram.(i).(j)],
   [j <= i], is [cols.(i) · cols.(j)] and [xty.(i)] is [cols.(i) · y],
   each summed over the rows in order. A column's entries are computed
   once, when it is stored, and every system below is read out of them.
   [sys] and [chol] hold the lower triangles of the system last solved and
   of its Cholesky factor; [w] its weights and [p] its predictions. *)
type normal = {
  y : float array;
  cols : float array array;
  gram : float array array;
  xty : float array;
  sys : Mat.t;
  chol : Mat.t;
  w : float array;
  p : float array;
}

let normal ~cap y =
  let n = Array.length y in
  {
    y;
    cols = Array.init cap (fun _ -> Array.make n 0.0);
    gram = Array.init cap (fun i -> Array.make (i + 1) 0.0);
    xty = Array.make cap 0.0;
    sys = Mat.create cap cap;
    chol = Mat.create cap cap;
    w = Array.make cap 0.0;
    p = Array.make n 0.0;
  }

(* The reflected pair [parent · max(0, ±(xd − knot))], [xd] the data's
   column of one dimension, into slots [at] and [at + 1], with their
   normal equations. The pass that fills the two columns also sums their
   products with each other and with y; each later pass over the rows
   takes two stored columns and gives four Gram entries. Every entry is
   [dot] of its two columns, its products added over the rows in order. *)
let store_pair ne xd ~parent ~knot ~at =
  let pc = ne.cols.(parent) and c1 = ne.cols.(at) and c2 = ne.cols.(at + 1) in
  let y = ne.y and g1 = ne.gram.(at) and g2 = ne.gram.(at + 1) in
  let n = Array.length pc in
  let short c = Array.length c < n in
  let bad =
    ref (short xd || short y || short c1 || short c2 || Array.length g1 <= at || Array.length g2 <= at + 1)
  in
  for j = 0 to at - 1 do
    if short ne.cols.(j) then bad := true
  done;
  if !bad then invalid_arg "Mars.store_pair: dimension mismatch";
  let s11 = ref 0.0 and s21 = ref 0.0 and s22 = ref 0.0 and t1 = ref 0.0 and t2 = ref 0.0 in
  for r = 0 to n - 1 do
    let pv = Array.unsafe_get pc r and xv = Array.unsafe_get xd r in
    let v1 = xv -. knot and v2 = knot -. xv in
    let a = if v1 > 0.0 then pv *. v1 else 0.0 in
    let b = if v2 > 0.0 then pv *. v2 else 0.0 in
    Array.unsafe_set c1 r a;
    Array.unsafe_set c2 r b;
    s11 := !s11 +. (a *. a);
    s21 := !s21 +. (a *. b);
    s22 := !s22 +. (b *. b);
    let yr = Array.unsafe_get y r in
    t1 := !t1 +. (a *. yr);
    t2 := !t2 +. (b *. yr)
  done;
  let j = ref 0 in
  while !j + 1 < at do
    let j0 = !j in
    let ca = Array.unsafe_get ne.cols j0 and cb = Array.unsafe_get ne.cols (j0 + 1) in
    let a1 = ref 0.0 and b1 = ref 0.0 and a2 = ref 0.0 and b2 = ref 0.0 in
    for r = 0 to n - 1 do
      let u = Array.unsafe_get ca r and v = Array.unsafe_get cb r in
      let e1 = Array.unsafe_get c1 r and e2 = Array.unsafe_get c2 r in
      a1 := !a1 +. (u *. e1);
      b1 := !b1 +. (v *. e1);
      a2 := !a2 +. (u *. e2);
      b2 := !b2 +. (v *. e2)
    done;
    Array.unsafe_set g1 j0 !a1;
    Array.unsafe_set g1 (j0 + 1) !b1;
    Array.unsafe_set g2 j0 !a2;
    Array.unsafe_set g2 (j0 + 1) !b2;
    j := j0 + 2
  done;
  if !j < at then begin
    let cj = Array.unsafe_get ne.cols !j in
    let a1 = ref 0.0 and a2 = ref 0.0 in
    for r = 0 to n - 1 do
      let u = Array.unsafe_get cj r in
      a1 := !a1 +. (u *. Array.unsafe_get c1 r);
      a2 := !a2 +. (u *. Array.unsafe_get c2 r)
    done;
    Array.unsafe_set g1 !j !a1;
    Array.unsafe_set g2 !j !a2
  end;
  g1.(at) <- !s11;
  g2.(at) <- !s21;
  g2.(at + 1) <- !s22;
  ne.xty.(at) <- !t1;
  ne.xty.(at + 1) <- !t2

(* Least squares on the columns [idx] (ascending). Rows [from ..] of the
   system and of its factor are built here; rows below [from] must be
   those of an earlier solve whose leading columns were the same. Leaves
   the weights in [ne.w] and returns the training SSE, or zero weights and
   an infinite SSE when the system is not positive definite. *)
let solve ne ~from idx =
  let m = Array.length idx in
  let w = ne.w and p = ne.p and y = ne.y and cols = ne.cols in
  let n = Array.length p in
  if from < 0 || from > m || Array.length w < m || Array.length y > n then
    invalid_arg "Mars.solve: dimension mismatch";
  for i = 0 to m - 1 do
    let c = idx.(i) in
    if
      c < 0
      || (i > 0 && c <= idx.(i - 1))
      || c >= Array.length cols
      || c >= Array.length ne.gram
      || c >= Array.length ne.xty
      || Array.length cols.(c) < n
      || Array.length ne.gram.(c) <= c
    then invalid_arg "Mars.solve: column index"
  done;
  for i = from to m - 1 do
    let gi = Array.unsafe_get ne.gram (Array.unsafe_get idx i) in
    for j = 0 to i do
      let v = Array.unsafe_get gi (Array.unsafe_get idx j) in
      Mat.set ne.sys i j (if i = j then v +. ridge else v)
    done
  done;
  match Mat.cholesky_rows ne.sys ne.chol ~from ~upto:m with
  | exception Failure _ ->
      Array.fill w 0 m 0.0;
      infinity
  | () ->
      for i = 0 to m - 1 do
        Array.unsafe_set w i (Array.unsafe_get ne.xty (Array.unsafe_get idx i))
      done;
      Mat.cholesky_solve ne.chol m w w;
      (* every prediction sums its terms in column order, two columns per
         pass, walking each column contiguously *)
      Array.fill p 0 n 0.0;
      let i = ref 0 in
      while !i + 1 < m do
        let i0 = !i in
        let ca = Array.unsafe_get cols (Array.unsafe_get idx i0)
        and cb = Array.unsafe_get cols (Array.unsafe_get idx (i0 + 1)) in
        let wa = Array.unsafe_get w i0 and wb = Array.unsafe_get w (i0 + 1) in
        for r = 0 to n - 1 do
          Array.unsafe_set p r
            (Array.unsafe_get p r +. (wa *. Array.unsafe_get ca r) +. (wb *. Array.unsafe_get cb r))
        done;
        i := i0 + 2
      done;
      if !i < m then begin
        let col = Array.unsafe_get cols (Array.unsafe_get idx !i) and wi = Array.unsafe_get w !i in
        for r = 0 to n - 1 do
          Array.unsafe_set p r (Array.unsafe_get p r +. (wi *. Array.unsafe_get col r))
        done
      end;
      let sse = ref 0.0 in
      for r = 0 to Array.length y - 1 do
        let e = Array.unsafe_get p r -. Array.unsafe_get y r in
        sse := !sse +. (e *. e)
      done;
      !sse

let effective_params m = float_of_int m +. (3.0 *. float_of_int (m - 1))

let knot_candidates ?(max_knots = 5) (d : Dataset.t) dim =
  let vals = List.sort_uniq compare (Array.to_list (Array.map (fun x -> x.(dim)) d.Dataset.x)) in
  (* drop the maximum (its positive hinge column would be all zero) *)
  let vals = match List.rev vals with [] | [ _ ] -> [] | _ :: rest -> List.rev rest in
  let m = List.length vals in
  if m <= max_knots then vals
  else
    let stride = float_of_int m /. float_of_int max_knots in
    List.filteri (fun i _ -> int_of_float (Float.rem (float_of_int i) stride) = 0) vals
    |> fun l -> if List.length l > max_knots then List.filteri (fun i _ -> i < max_knots) l else l

let fit ?(max_terms = 23) ?(max_degree = 2) ?(names = [||]) (d : Dataset.t) : Model.t =
  let d_std, mu, sd = Dataset.standardize_stats d in
  let n = Dataset.size d_std in
  let k = Dataset.dims d_std in
  let names = if Array.length names = k then names else Array.init k (Printf.sprintf "x%d") in
  let x = d_std.Dataset.x in
  (* the data by dimension, so a hinge column is read contiguously *)
  let xcols = Array.init k (fun dim -> Array.map (fun row -> row.(dim)) x) in
  let cap = Stdlib.max 1 max_terms in
  let ne = normal ~cap d_std.Dataset.y in
  let bases = Array.make cap ([] : basis) in
  (* the intercept *)
  let one = ne.cols.(0) in
  Array.fill one 0 n 1.0;
  ne.gram.(0).(0) <- dot one one;
  ne.xty.(0) <- dot one ne.y;
  let m = ref 1 in
  let knots = Array.init k (fun dim -> Array.of_list (knot_candidates d_std dim)) in
  (* ---------- forward pass ---------- *)
  let current_sse = ref (solve ne ~from:0 [| 0 |]) in
  let continue_ = ref true in
  while !continue_ && !m + 2 <= max_terms do
    let m0 = !m in
    let idx = Array.init (m0 + 2) Fun.id in
    let best = ref None in
    for pi = 0 to m0 - 1 do
      let parent = bases.(pi) in
      if List.length parent < max_degree then
        for dim = 0 to k - 1 do
          if not (List.exists (fun f -> f.dim = dim) parent) then
            for ki = 0 to Array.length knots.(dim) - 1 do
              store_pair ne xcols.(dim) ~parent:pi ~knot:knots.(dim).(ki) ~at:m0;
              let sse = solve ne ~from:m0 idx in
              match !best with
              | Some (s, _, _, _) when s <= sse -> ()
              | _ -> best := Some (sse, pi, dim, ki)
            done
        done
    done;
    match !best with
    | Some (sse, pi, dim, ki) when sse < !current_sse *. 0.999 ->
        (* the slots hold the last candidate tried: store the winner again
           and refactor its two rows *)
        let knot = knots.(dim).(ki) in
        store_pair ne xcols.(dim) ~parent:pi ~knot ~at:m0;
        ignore (solve ne ~from:m0 idx);
        bases.(m0) <- { dim; knot; positive = true } :: bases.(pi);
        bases.(m0 + 1) <- { dim; knot; positive = false } :: bases.(pi);
        m := m0 + 2;
        current_sse := sse
    | _ -> continue_ := false
  done;
  (* ---------- backward pass ---------- *)
  let eval_subset subset =
    let sse = solve ne ~from:0 (Array.of_list subset) in
    Metrics.gcv ~samples:n ~effective_params:(effective_params (List.length subset)) ~sse
  in
  let all_idx = List.init !m Fun.id in
  let best_subset = ref all_idx in
  let best_gcv = ref (eval_subset all_idx) in
  let cur = ref all_idx in
  while List.length !cur > 1 do
    (* try removing each non-intercept index; keep the best resulting GCV *)
    let cands =
      List.filter_map
        (fun drop -> if drop = 0 then None else Some (drop, eval_subset (List.filter (( <> ) drop) !cur)))
        !cur
    in
    match cands with
    | [] -> cur := [ 0 ]
    | _ ->
        let drop, g = List.fold_left (fun (bd, bg) (d', g') -> if g' < bg then (d', g') else (bd, bg))
            (fst (List.hd cands), snd (List.hd cands)) (List.tl cands)
        in
        cur := List.filter (( <> ) drop) !cur;
        if g < !best_gcv then begin
          best_gcv := g;
          best_subset := !cur
        end
  done;
  (* ---------- final refit ---------- *)
  let best_idx = Array.of_list !best_subset in
  ignore (solve ne ~from:0 best_idx);
  let w = Array.sub ne.w 0 (Array.length best_idx) in
  let final_bases = Array.map (fun i -> bases.(i)) best_idx in
  let repr = Repr.Mars { bases = final_bases; weights = w; mu; sd } in
  {
    Model.technique = "mars";
    predict = Repr.eval repr;
    n_params = Array.length w;
    terms =
      Array.to_list (Array.mapi (fun i b -> (basis_name names b, w.(i))) final_bases);
    repr = Some repr;
  }
