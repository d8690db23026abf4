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
   [n_features ~interactions (Array.length x)] cells. *)
let expand_into ~interactions x out =
  let k = Array.length x in
  out.(0) <- 1.0;
  Array.blit x 0 out 1 k;
  if interactions then begin
    let idx = ref (1 + k) in
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        out.(!idx) <- x.(i) *. x.(j);
        incr idx
      done
    done
  end

let expand ~interactions x =
  let out = Array.make (n_features ~interactions (Array.length x)) 0.0 in
  expand_into ~interactions x out;
  out

let eval_basis (b : factor list) x =
  List.fold_left
    (fun acc f ->
      let v = if f.positive then x.(f.dim) -. f.knot else f.knot -. x.(f.dim) in
      if v <= 0.0 then 0.0 else acc *. v)
    1.0 b

let eval_kernel kernel ~r d2 =
  match kernel with
  | Gaussian -> exp (-.d2 /. (2.0 *. r *. r))
  | Multiquadric -> sqrt ((d2 /. (r *. r)) +. 1.0)
  | InverseMultiquadric -> 1.0 /. sqrt ((d2 /. (r *. r)) +. 1.0)

let dist2 a b =
  let acc = ref 0.0 in
  Array.iteri
    (fun i ai ->
      let d = ai -. b.(i) in
      acc := !acc +. (d *. d))
    a;
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
      acc := !acc +. (scratch.(i) *. beta.(i))
    done;
    !acc

(* Staged: the representation dispatch and the feature scratch are
   resolved once per [eval r], so the returned closure must not be shared
   between concurrent evaluators. *)
let rec eval r =
  match r with
  | Linear { interactions; beta; mu; sd } ->
      let dot = dot_features ~interactions beta in
      fun x -> (dot x *. sd) +. mu
  | Mars { bases; weights; mu; sd } ->
      fun x ->
        let acc = ref 0.0 in
        Array.iteri (fun i b -> acc := !acc +. (weights.(i) *. eval_basis b x)) bases;
        (!acc *. sd) +. mu
  | Rbf { kernel; centers; radii; weights; mu; sd } ->
      fun x ->
        let acc = ref weights.(0) in
        Array.iteri
          (fun j c ->
            acc := !acc +. (weights.(j + 1) *. eval_kernel kernel ~r:radii.(j) (dist2 x c)))
          centers;
        (!acc *. sd) +. mu
  | Rank { interactions; beta } ->
      (* a unitless ranking score over the same feature expansion as
         Linear, without response standardization: only order matters *)
      dot_features ~interactions beta
  | Clamp { lo; hi; body } ->
      let f = eval body in
      fun x -> Float.max lo (Float.min hi (f x))

(* ---------------- JSON ---------------- *)

(* Floats travel as hex literals (like the measurement cache): decimal JSON
   numbers would round-trip too at 17 digits, but hex makes the exactness
   contract explicit and survives any printer/parser in between. *)
let jfloat v = Json.Str (Printf.sprintf "%h" v)

let jfloats a = Json.List (Array.to_list (Array.map jfloat a))

let factor_to_json f =
  Json.Obj [ ("dim", Json.Int f.dim); ("knot", jfloat f.knot); ("positive", Json.Bool f.positive) ]

let rec to_json = function
  | Linear { interactions; beta; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "linear"); ("interactions", Json.Bool interactions);
          ("beta", jfloats beta); ("mu", jfloat mu); ("sd", jfloat sd) ]
  | Mars { bases; weights; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "mars");
          ("bases",
           Json.List
             (Array.to_list (Array.map (fun b -> Json.List (List.map factor_to_json b)) bases)));
          ("weights", jfloats weights); ("mu", jfloat mu); ("sd", jfloat sd) ]
  | Rbf { kernel; centers; radii; weights; mu; sd } ->
      Json.Obj
        [ ("family", Json.Str "rbf"); ("kernel", Json.Str (kernel_name kernel));
          ("centers", Json.List (Array.to_list (Array.map jfloats centers)));
          ("radii", jfloats radii); ("weights", jfloats weights); ("mu", jfloat mu);
          ("sd", jfloat sd) ]
  | Rank { interactions; beta } ->
      Json.Obj
        [ ("family", Json.Str "rank"); ("interactions", Json.Bool interactions);
          ("beta", jfloats beta) ]
  | Clamp { lo; hi; body } ->
      Json.Obj
        [ ("family", Json.Str "clamp"); ("lo", jfloat lo); ("hi", jfloat hi);
          ("body", to_json body) ]

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_float = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "malformed float literal %S" s))
  | _ -> Error "expected a float"

let as_bool = function Json.Bool b -> Ok b | _ -> Error "expected a bool"

let as_int = function Json.Int i -> Ok i | _ -> Error "expected an int"

let as_str = function Json.Str s -> Ok s | _ -> Error "expected a string"

let as_list = function Json.List l -> Ok l | _ -> Error "expected a list"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let ffield name j =
  let* v = field name j in
  as_float v

let float_array name j =
  let* v = field name j in
  let* l = as_list v in
  let* fs = map_result as_float l in
  Ok (Array.of_list fs)

let factor_of_json j =
  let* dim = Result.bind (field "dim" j) as_int in
  let* knot = ffield "knot" j in
  let* positive = Result.bind (field "positive" j) as_bool in
  if dim < 0 then Error "negative basis dimension" else Ok { dim; knot; positive }

let rec of_json j =
  let* fam = Result.bind (field "family" j) as_str in
  match fam with
  | "linear" ->
      let* interactions = Result.bind (field "interactions" j) as_bool in
      let* beta = float_array "beta" j in
      let* mu = ffield "mu" j in
      let* sd = ffield "sd" j in
      if Array.length beta = 0 then Error "linear model with no coefficients"
      else Ok (Linear { interactions; beta; mu; sd })
  | "mars" ->
      let* bl = Result.bind (field "bases" j) as_list in
      let* bases =
        map_result (fun b -> Result.bind (as_list b) (map_result factor_of_json)) bl
      in
      let bases = Array.of_list bases in
      let* weights = float_array "weights" j in
      let* mu = ffield "mu" j in
      let* sd = ffield "sd" j in
      if Array.length weights <> Array.length bases then
        Error
          (Printf.sprintf "mars: %d weights for %d basis functions" (Array.length weights)
             (Array.length bases))
      else Ok (Mars { bases; weights; mu; sd })
  | "rbf" ->
      let* kname = Result.bind (field "kernel" j) as_str in
      let* kernel =
        match kernel_of_name kname with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "unknown RBF kernel %S" kname)
      in
      let* cl = Result.bind (field "centers" j) as_list in
      let* centers =
        map_result (fun c -> Result.map Array.of_list (Result.bind (as_list c) (map_result as_float))) cl
      in
      let centers = Array.of_list centers in
      let* radii = float_array "radii" j in
      let* weights = float_array "weights" j in
      let* mu = ffield "mu" j in
      let* sd = ffield "sd" j in
      if Array.length radii <> Array.length centers then Error "rbf: radii/centers mismatch"
      else if Array.length weights <> Array.length centers + 1 then
        Error
          (Printf.sprintf "rbf: %d weights for %d centers (want centers + bias)"
             (Array.length weights) (Array.length centers))
      else Ok (Rbf { kernel; centers; radii; weights; mu; sd })
  | "rank" ->
      let* interactions = Result.bind (field "interactions" j) as_bool in
      let* beta = float_array "beta" j in
      if Array.length beta = 0 then Error "rank model with no coefficients"
      else Ok (Rank { interactions; beta })
  | "clamp" ->
      let* lo = ffield "lo" j in
      let* hi = ffield "hi" j in
      let* body = Result.bind (field "body" j) of_json in
      Ok (Clamp { lo; hi; body })
  | other -> Error (Printf.sprintf "unknown model family %S" other)
