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
    pair costs only its 2m+5 new dot products, and the backward pass and
    the final refit read their systems out of the same cache. Each entry
    is the dot product that building the whole system anew would sum,
    over the rows in the same order, so the fitted bits do not depend on
    the cache. *)

type factor = Repr.factor = { dim : int; knot : float; positive : bool }

type basis = factor list (* empty = intercept *)

(* the single hinge-product implementation, shared with artifact eval *)
let eval_basis (b : basis) x = Repr.eval_basis b x

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

let dot a b =
  let acc = ref 0.0 in
  for r = 0 to Array.length a - 1 do
    acc := !acc +. (a.(r) *. b.(r))
  done;
  !acc

(* Columns with their normal equations: [gram.(i).(j)], [j <= i], is
   [cols.(i) · cols.(j)] and [xty.(i)] is [cols.(i) · y], each summed over
   the rows in order. A column's entries are computed once, when it is
   appended, and every system below is read out of them. *)
type normal = { cols : float array array; gram : float array array; xty : float array }

let no_cols = { cols = [||]; gram = [||]; xty = [||] }

(* [ne] plus column [c]: its m + 2 new dot products *)
let add_col y ne c =
  let m = Array.length ne.cols in
  {
    cols = Array.append ne.cols [| c |];
    gram =
      Array.append ne.gram
        [| Array.init (m + 1) (fun j -> dot (if j = m then c else ne.cols.(j)) c) |];
    xty = Array.append ne.xty [| dot c y |];
  }

(* Least squares on the columns [idx] (ascending) of [ne]; returns
   (weights, training SSE), or zero weights and an infinite SSE when the
   system is not positive definite. *)
let solve y ne idx =
  let m = Array.length idx in
  let g =
    Mat.init m m (fun i j ->
        let v = if i >= j then ne.gram.(idx.(i)).(idx.(j)) else ne.gram.(idx.(j)).(idx.(i)) in
        if i = j then v +. ridge else v)
  in
  let rhs = Array.map (fun i -> ne.xty.(i)) idx in
  match (try Some (Mat.solve_spd g rhs) with Failure _ -> None) with
  | None -> (Array.make m 0.0, infinity)
  | Some w ->
      (* every prediction sums its terms in column order, walking each
         column contiguously *)
      let p = Array.make (Array.length y) 0.0 in
      Array.iteri
        (fun i c ->
          let col = ne.cols.(c) in
          for r = 0 to Array.length p - 1 do
            p.(r) <- p.(r) +. (w.(i) *. col.(r))
          done)
        idx;
      let sse = ref 0.0 in
      for r = 0 to Array.length y - 1 do
        let e = p.(r) -. y.(r) in
        sse := !sse +. (e *. e)
      done;
      (w, !sse)

let solve_all y ne = solve y ne (Array.init (Array.length ne.cols) Fun.id)

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
  let y = d_std.Dataset.y in
  let col_of b = Array.map (eval_basis b) d_std.Dataset.x in
  let bases = ref [ ([] : basis) ] in
  let ne = ref (add_col y no_cols (col_of [])) in
  let knots = Array.init k (fun dim -> knot_candidates d_std dim) in
  (* ---------- forward pass ---------- *)
  let current_sse = ref (snd (solve_all y !ne)) in
  let continue_ = ref true in
  while !continue_ && List.length !bases + 2 <= max_terms do
    let best = ref None in
    List.iteri
      (fun pi parent ->
        if List.length parent < max_degree then
          let parent_col = !ne.cols.(pi) in
          for dim = 0 to k - 1 do
            if not (List.exists (fun f -> f.dim = dim) parent) then
              List.iter
                (fun knot ->
                  let c1 = Array.mapi (fun r pv ->
                      let v = d_std.Dataset.x.(r).(dim) -. knot in
                      if v > 0.0 then pv *. v else 0.0) parent_col
                  in
                  let c2 = Array.mapi (fun r pv ->
                      let v = knot -. d_std.Dataset.x.(r).(dim) in
                      if v > 0.0 then pv *. v else 0.0) parent_col
                  in
                  let ext = add_col y (add_col y !ne c1) c2 in
                  let _, sse = solve_all y ext in
                  match !best with
                  | Some (s, _, _, _, _) when s <= sse -> ()
                  | _ -> best := Some (sse, parent, dim, knot, ext))
                knots.(dim)
          done)
      !bases;
    match !best with
    | Some (sse, parent, dim, knot, ext) when sse < !current_sse *. 0.999 ->
        bases := !bases @ [ { dim; knot; positive = true } :: parent;
                            { dim; knot; positive = false } :: parent ];
        ne := ext;
        current_sse := sse
    | _ -> continue_ := false
  done;
  (* ---------- backward pass ---------- *)
  let eval_subset subset =
    let _, sse = solve y !ne (Array.of_list subset) in
    Metrics.gcv ~samples:n ~effective_params:(effective_params (List.length subset)) ~sse
  in
  let all_idx = List.init (List.length !bases) Fun.id in
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
  let final_bases = List.filteri (fun i _ -> List.mem i !best_subset) !bases in
  let w, _ = solve y !ne (Array.of_list !best_subset) in
  let final_bases = Array.of_list final_bases in
  let repr = Repr.Mars { bases = final_bases; weights = w; mu; sd } in
  {
    Model.technique = "mars";
    predict = Repr.eval repr;
    n_params = Array.length w;
    terms =
      Array.to_list (Array.mapi (fun i b -> (basis_name names b, w.(i))) final_bases);
    repr = Some repr;
  }
