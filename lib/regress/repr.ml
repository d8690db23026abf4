module Json = Emc_obs.Json

(** Serializable model representations. See repr.mli — the evaluation
    functions here are the one true implementation shared by the fitting
    code and by loaded artifacts, which is what makes save → load → eval
    bit-identical to the freshly fitted closure. *)

type factor = { dim : int; knot : float; positive : bool }

type kernel = Gaussian | Multiquadric | InverseMultiquadric

type t =
  | Linear of { interactions : bool; beta : float array; mu : float; sd : float }
  | Mars of { bases : factor list array; weights : float array; mu : float; sd : float }
  | Rbf of {
      kernel : kernel;
      centers : float array array;
      radii : float array;
      weights : float array;
      mu : float;
      sd : float;
    }
  | Rank of { interactions : bool; beta : float array }
  | Clamp of { lo : float; hi : float; body : t }

let rec family = function
  | Linear _ -> "linear"
  | Mars _ -> "mars"
  | Rbf _ -> "rbf"
  | Rank _ -> "rank"
  | Clamp { body; _ } -> family body

let kernel_name = function
  | Gaussian -> "gaussian"
  | Multiquadric -> "multiquadric"
  | InverseMultiquadric -> "inverse-multiquadric"

let kernel_of_name = function
  | "gaussian" -> Some Gaussian
  | "multiquadric" -> Some Multiquadric
  | "inverse-multiquadric" -> Some InverseMultiquadric
  | _ -> None

(* ---------------- evaluation ---------------- *)

let n_features ~interactions k = if interactions then 1 + k + (k * (k + 1) / 2) else 1 + k

(* The feature row into a caller-owned array of at least
   [n_features ~interactions (Array.length x)] cells, written unchecked
   after the entry check. *)
let expand_into ~interactions x out =
  let k = Array.length x in
  if Array.length out < n_features ~interactions k then
    invalid_arg "Repr.expand: feature row too short";
  Array.unsafe_set out 0 1.0;
  Array.blit x 0 out 1 k;
  if interactions then begin
    let idx = ref (1 + k) in
    for i = 0 to k - 1 do
      let xi = Array.unsafe_get x i in
      for j = i to k - 1 do
        Array.unsafe_set out !idx (xi *. Array.unsafe_get x j);
        incr idx
      done
    done
  end

let expand ~interactions x =
  let out = Array.make (n_features ~interactions (Array.length x)) 0.0 in
  expand_into ~interactions x out;
  out

(* The kernels below are loops over local accumulators, and the three
   float-valued helpers are [@inline]: without flambda, a float captured by
   a closure is boxed on every update, and a float returned from a call
   that is not inlined is boxed once per call. Inlined into [eval], they
   leave a staged evaluation one allocation, the box of its result. Their
   loops read unchecked: [eval] checks a repr's own arrays against each
   other when it stages it, and the point against the repr on every
   call, before the first unchecked read. *)

(* Every factor multiplies in, in list order; one at or below its knot
   zeroes the product, and later factors still multiply the zero. [x]
   must reach every factor's [dim]. *)
let[@inline] eval_basis (b : factor list) (x : float array) =
  let acc = ref 1.0 and rest = ref b in
  while
    match !rest with
    | [] -> false
    | f :: tl ->
        let xd = Array.unsafe_get x f.dim in
        let v = if f.positive then xd -. f.knot else f.knot -. xd in
        acc := if v <= 0.0 then 0.0 else !acc *. v;
        rest := tl;
        true
  do
    ()
  done;
  !acc

let[@inline] eval_kernel kernel ~r d2 =
  match kernel with
  | Gaussian -> exp (-.d2 /. (2.0 *. r *. r))
  | Multiquadric -> sqrt ((d2 /. (r *. r)) +. 1.0)
  | InverseMultiquadric -> 1.0 /. sqrt ((d2 /. (r *. r)) +. 1.0)

let[@inline] dist2 a b =
  let n = Array.length a in
  if Array.length b < n then invalid_arg "Repr.dist2: a center with fewer coordinates than the point";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get a i -. Array.unsafe_get b i in
    acc := !acc +. (d *. d)
  done;
  !acc

(* [beta] dotted with the feature row of [x], expanded into scratch
   allocated once per staged evaluator. *)
let dot_features ~interactions beta =
  let scratch = Array.make (Array.length beta) 0.0 in
  fun x ->
    let nf = n_features ~interactions (Array.length x) in
    if nf > Array.length scratch then
      invalid_arg "Repr.eval: point arity exceeds the fitted dimensionality";
    expand_into ~interactions x scratch;
    let acc = ref 0.0 in
    for i = 0 to nf - 1 do
      acc := !acc +. (Array.unsafe_get scratch i *. Array.unsafe_get beta i)
    done;
    !acc

(* One past the largest dimension any hinge of [bases] reads. *)
let hinge_reach bases =
  Array.fold_left
    (List.fold_left (fun reach f ->
         if f.dim < 0 then invalid_arg "Repr.eval: a hinge on a negative dimension";
         Int.max reach (f.dim + 1)))
    0 bases

(* Staged: the representation dispatch and the feature scratch are
   resolved once per [eval r], so the returned closure must not be shared
   between concurrent evaluators. *)
let rec eval r =
  match r with
  | Linear { interactions; beta; mu; sd } ->
      let dot = dot_features ~interactions beta in
      fun x -> (dot x *. sd) +. mu
  | Mars { bases; weights; mu; sd } ->
      let nb = Array.length bases and reach = hinge_reach bases in
      if Array.length weights < nb then invalid_arg "Repr.eval: fewer MARS weights than bases";
      fun x ->
        if Array.length x < reach then
          invalid_arg "Repr.eval: a hinge on a dimension the point does not have";
        let acc = ref 0.0 in
        for i = 0 to nb - 1 do
          acc :=
            !acc +. (Array.unsafe_get weights i *. eval_basis (Array.unsafe_get bases i) x)
        done;
        (!acc *. sd) +. mu
  | Rbf { kernel; centers; radii; weights; mu; sd } ->
      let nc = Array.length centers in
      if Array.length radii < nc || Array.length weights < nc + 1 then
        invalid_arg "Repr.eval: RBF radii or weights do not match the centers";
      fun x ->
        let acc = ref (Array.unsafe_get weights 0) in
        for j = 0 to nc - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get weights (j + 1)
               *. eval_kernel kernel ~r:(Array.unsafe_get radii j)
                    (dist2 x (Array.unsafe_get centers j)))
        done;
        (!acc *. sd) +. mu
  | Rank { interactions; beta } ->
      (* a unitless ranking score over the same feature expansion as
         Linear, without response standardization: only order matters *)
      dot_features ~interactions beta
  | Clamp { lo; hi; body } ->
      let f = eval body in
      fun x -> Float.max lo (Float.min hi (f x))

(* [eval] reads a point by the repr's own shape: a repr that does not fit
   [dims]-dimensional points would raise on some points and silently
   ignore coordinates of others. *)
let rec check ~dims r =
  let beta_fits family ~interactions beta =
    let want = n_features ~interactions dims in
    if Array.length beta = want then Ok ()
    else
      Error
        (Printf.sprintf "%s: %d coefficients for %d dimensions (want %d)" family
           (Array.length beta) dims want)
  in
  match r with
  | Linear { interactions; beta; _ } -> beta_fits "linear" ~interactions beta
  | Rank { interactions; beta } -> beta_fits "rank" ~interactions beta
  | Mars { bases; _ } -> (
      match Array.find_map (List.find_opt (fun f -> f.dim < 0 || f.dim >= dims)) bases with
      | None -> Ok ()
      | Some f -> Error (Printf.sprintf "mars: a hinge on dimension %d of %d" f.dim dims))
  | Rbf { centers; _ } -> (
      match Array.find_opt (fun c -> Array.length c <> dims) centers with
      | None -> Ok ()
      | Some c ->
          Error
            (Printf.sprintf "rbf: a center with %d coordinates for %d dimensions"
               (Array.length c) dims))
  | Clamp { body; _ } -> check ~dims body

(* ---------------- JSON ---------------- *)

(* Floats travel as hex literals (like the measurement cache): decimal JSON
   numbers would round-trip too at 17 digits, but hex makes the exactness
   contract explicit and survives any printer/parser in between. *)
let jfloats a = Json.List (Array.to_list (Array.map Json.hex a))

let factor_to_json f =
  Json.Obj
    [ ("dim", Json.Int f.dim); ("knot", Json.hex f.knot); ("positive", Json.Bool f.positive) ]

let rec to_json = function
  | Linear { interactions; beta; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "linear"); ("interactions", Json.Bool interactions);
          ("beta", jfloats beta); ("mu", Json.hex mu); ("sd", Json.hex sd) ]
  | Mars { bases; weights; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "mars");
          ("bases",
           Json.List
             (Array.to_list (Array.map (fun b -> Json.List (List.map factor_to_json b)) bases)));
          ("weights", jfloats weights); ("mu", Json.hex mu); ("sd", Json.hex sd) ]
  | Rbf { kernel; centers; radii; weights; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "rbf"); ("kernel", Json.Str (kernel_name kernel));
          ("centers", Json.List (Array.to_list (Array.map jfloats centers)));
          ("radii", jfloats radii); ("weights", jfloats weights); ("mu", Json.hex mu);
          ("sd", Json.hex sd) ]
  | Rank { interactions; beta } ->
      Json.Obj
        [ ("family", Json.Str "rank"); ("interactions", Json.Bool interactions);
          ("beta", jfloats beta) ]
  | Clamp { lo; hi; body } ->
      Json.Obj
        [ ("family", Json.Str "clamp"); ("lo", Json.hex lo); ("hi", Json.hex hi);
          ("body", to_json body) ]

let ( let* ) = Result.bind

let float_array name j = Result.map Array.of_list (Json.get name (Json.list_of Json.as_float) j)

let factor_of_json j =
  let* dim = Json.get "dim" Json.as_int j in
  let* knot = Json.get "knot" Json.as_float j in
  let* positive = Json.get "positive" Json.as_bool j in
  if dim < 0 then Error "negative basis dimension" else Ok { dim; knot; positive }

let rec of_json j =
  let* fam = Json.get "family" Json.as_str j in
  match fam with
  | "linear" ->
      let* interactions = Json.get "interactions" Json.as_bool j in
      let* beta = float_array "beta" j in
      let* mu = Json.get "mu" Json.as_float j in
      let* sd = Json.get "sd" Json.as_float j in
      if Array.length beta = 0 then Error "linear model with no coefficients"
      else Ok (Linear { interactions; beta; mu; sd })
  | "mars" ->
      let* bases = Json.get "bases" (Json.list_of (Json.list_of factor_of_json)) j in
      let bases = Array.of_list bases in
      let* weights = float_array "weights" j in
      let* mu = Json.get "mu" Json.as_float j in
      let* sd = Json.get "sd" Json.as_float j in
      if Array.length weights <> Array.length bases then
        Error
          (Printf.sprintf "mars: %d weights for %d basis functions" (Array.length weights)
             (Array.length bases))
      else Ok (Mars { bases; weights; mu; sd })
  | "rbf" ->
      let* kname = Json.get "kernel" Json.as_str j in
      let* kernel =
        match kernel_of_name kname with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "unknown RBF kernel %S" kname)
      in
      let* centers =
        Json.get "centers"
          (Json.list_of (fun c -> Result.map Array.of_list (Json.list_of Json.as_float c)))
          j
      in
      let centers = Array.of_list centers in
      let* radii = float_array "radii" j in
      let* weights = float_array "weights" j in
      let* mu = Json.get "mu" Json.as_float j in
      let* sd = Json.get "sd" Json.as_float j in
      if Array.length radii <> Array.length centers then Error "rbf: radii/centers mismatch"
      else if Array.length weights <> Array.length centers + 1 then
        Error
          (Printf.sprintf "rbf: %d weights for %d centers (want centers + bias)"
             (Array.length weights) (Array.length centers))
      else Ok (Rbf { kernel; centers; radii; weights; mu; sd })
  | "rank" ->
      let* interactions = Json.get "interactions" Json.as_bool j in
      let* beta = float_array "beta" j in
      if Array.length beta = 0 then Error "rank model with no coefficients"
      else Ok (Rank { interactions; beta })
  | "clamp" ->
      let* lo = Json.get "lo" Json.as_float j in
      let* hi = Json.get "hi" Json.as_float j in
      let* body = Json.get "body" of_json j in
      Ok (Clamp { lo; hi; body })
  | other -> Error (Printf.sprintf "unknown model family %S" other)
