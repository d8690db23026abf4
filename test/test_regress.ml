(** Regression-model tests: datasets, metrics, and the three model families
    on synthetic functions with known structure. *)

open Emc_regress

let cb = Alcotest.(check bool)
let cf = Alcotest.(check (float 1e-6))

let rng0 () = Emc_util.Rng.create 42

(* sample a function over random points in [-1,1]^k *)
let sample rng k n f =
  let x = Array.init n (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)) in
  Dataset.create x (Array.map f x)

(* ---------------- dataset ---------------- *)

let test_dataset_basics () =
  let d = Dataset.create [| [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |] [| 10.0; 20.0; 30.0 |] in
  Alcotest.(check int) "size" 3 (Dataset.size d);
  Alcotest.(check int) "dims" 1 (Dataset.dims d);
  let a, b = Dataset.split (rng0 ()) d 2 in
  Alcotest.(check int) "split sizes" 2 (Dataset.size a);
  Alcotest.(check int) "split sizes 2" 1 (Dataset.size b)

let test_dataset_sample () =
  let d = Dataset.create (Array.init 10 (fun i -> [| float_of_int i |])) (Array.init 10 float_of_int) in
  let s = Dataset.sample (rng0 ()) d 4 in
  Alcotest.(check int) "sample size" 4 (Dataset.size s);
  (* samples are distinct rows of the original *)
  let rows = Array.to_list (Array.map (fun r -> r.(0)) s.Dataset.x) in
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare rows))

let test_dataset_standardize () =
  let d = Dataset.create [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |] |] [| 10.0; 20.0; 30.0 |] in
  let ds, unstd = Dataset.standardize d in
  cf "standardized mean" 0.0 (Emc_util.Stats.mean ds.Dataset.y);
  cf "roundtrip" 20.0 (unstd ds.Dataset.y.(1))

(* ---------------- metrics ---------------- *)

let test_metrics () =
  let d = Dataset.create [| [| 0.0 |]; [| 1.0 |] |] [| 100.0; 200.0 |] in
  let predict x = if x.(0) = 0.0 then 110.0 else 180.0 in
  cf "mape" 10.0 (Metrics.mape predict d);
  Alcotest.(check (float 1e-4)) "rmse" (sqrt (((10.0 ** 2.0) +. (20.0 ** 2.0)) /. 2.0))
    (Metrics.rmse predict d);
  cf "sse" 500.0 (Metrics.sse predict d)

let test_bic_penalizes_complexity () =
  let b1 = Metrics.bic ~samples:100 ~params:5 ~sse:1000.0 in
  let b2 = Metrics.bic ~samples:100 ~params:50 ~sse:1000.0 in
  cb "more params, higher BIC" true (b2 > b1);
  cb "gamma >= p is infinite" true (Metrics.bic ~samples:10 ~params:10 ~sse:1.0 = infinity)

let test_gcv_penalizes_complexity () =
  let g1 = Metrics.gcv ~samples:100 ~effective_params:5.0 ~sse:1000.0 in
  let g2 = Metrics.gcv ~samples:100 ~effective_params:50.0 ~sse:1000.0 in
  cb "more effective params, higher GCV" true (g2 > g1)

(* ---------------- linear ---------------- *)

let test_linear_recovers_coefficients () =
  let f x = 5.0 +. (2.0 *. x.(0)) -. (3.0 *. x.(1)) in
  let d = sample (rng0 ()) 3 80 f in
  let m = Linear.fit ~interactions:false d in
  let test = sample (Emc_util.Rng.create 7) 3 40 f in
  cb "near-zero error" true (Metrics.mape m.Model.predict test < 0.5)

let test_linear_with_interactions () =
  let f x = 1.0 +. (2.0 *. x.(0) *. x.(1)) +. x.(2) in
  let d = sample (rng0 ()) 3 120 f in
  let plain = Linear.fit ~interactions:false d in
  let inter = Linear.fit ~interactions:true d in
  let test = sample (Emc_util.Rng.create 8) 3 50 f in
  let ep = Metrics.mape plain.Model.predict test in
  let ei = Metrics.mape inter.Model.predict test in
  cb (Printf.sprintf "interactions help (%.1f%% vs %.1f%%)" ei ep) true (ei < ep /. 3.0)

let test_linear_feature_names () =
  let names = Linear.feature_names ~interactions:true [| "a"; "b" |] in
  Alcotest.(check (array string)) "names" [| "const"; "a"; "b"; "a^2"; "a * b"; "b^2" |] names

(* ---------------- tree ---------------- *)

let test_tree_piecewise_constant () =
  let f x = if x.(0) > 0.3 then 10.0 else if x.(1) > 0.0 then 5.0 else 1.0 in
  let d = sample (rng0 ()) 2 200 f in
  let t = Tree.fit ~max_leaves:8 d in
  let test = sample (Emc_util.Rng.create 9) 2 100 f in
  cb "low error on piecewise target" true (Metrics.rmse (Tree.predict t) test < 1.5)

let test_tree_respects_max_leaves () =
  let f x = x.(0) *. x.(1) in
  let d = sample (rng0 ()) 2 100 f in
  List.iter
    (fun ml ->
      let t = Tree.fit ~max_leaves:ml d in
      cb
        (Printf.sprintf "leaves <= %d" ml)
        true
        (List.length (Tree.leaves t) <= ml))
    [ 1; 2; 4; 8; 16 ]

let test_tree_min_leaf () =
  let f x = x.(0) in
  let d = sample (rng0 ()) 1 30 f in
  let t = Tree.fit ~min_leaf:5 ~max_leaves:16 d in
  List.iter
    (fun (idx, _) -> cb "leaf size >= 5" true (Array.length idx >= 5))
    (Tree.leaves t)

(* ---------------- RBF ---------------- *)

let test_rbf_kernels () =
  cf "gaussian at center" 1.0 (Rbf.eval_kernel Rbf.Gaussian ~r:1.0 0.0);
  cf "multiquadric at center" 1.0 (Rbf.eval_kernel Rbf.Multiquadric ~r:1.0 0.0);
  cf "inverse multiquadric at center" 1.0 (Rbf.eval_kernel Rbf.InverseMultiquadric ~r:1.0 0.0);
  cb "gaussian decays" true (Rbf.eval_kernel Rbf.Gaussian ~r:1.0 4.0 < 0.2);
  cb "multiquadric grows" true (Rbf.eval_kernel Rbf.Multiquadric ~r:1.0 4.0 > 2.0);
  cb "inv-multiquadric decays" true (Rbf.eval_kernel Rbf.InverseMultiquadric ~r:1.0 4.0 < 0.5)

let test_rbf_fits_nonlinear () =
  let f x = sin (3.0 *. x.(0)) +. (x.(1) *. x.(1)) in
  let d = sample (rng0 ()) 2 150 f in
  let rbf = Rbf.fit d in
  let lin = Linear.fit ~interactions:false d in
  let test = sample (Emc_util.Rng.create 10) 2 60 f in
  let er = Metrics.rmse rbf.Model.predict test in
  let el = Metrics.rmse lin.Model.predict test in
  cb (Printf.sprintf "rbf (%.3f) beats linear (%.3f) on nonlinear target" er el) true
    (er < el /. 2.0)

let test_rbf_all_kernels_reasonable () =
  let f x = (x.(0) *. x.(1)) +. x.(2) in
  let d = sample (rng0 ()) 3 120 f in
  let test = sample (Emc_util.Rng.create 11) 3 50 f in
  List.iter
    (fun k ->
      let m = Rbf.fit ~kernel:k d in
      cb (Rbf.kernel_name k ^ " fits") true (Metrics.rmse m.Model.predict test < 0.5))
    [ Rbf.Gaussian; Rbf.Multiquadric; Rbf.InverseMultiquadric ]

(* ---------------- MARS ---------------- *)

let test_mars_recovers_hinge () =
  let f x = 2.0 +. (3.0 *. Float.max 0.0 (x.(0) -. 0.2)) in
  let d = sample (rng0 ()) 3 150 f in
  let m = Mars.fit d in
  let test = sample (Emc_util.Rng.create 12) 3 60 f in
  cb "tiny error on hinge target" true (Metrics.rmse m.Model.predict test < 0.15)

let test_mars_finds_interaction () =
  let f x = 1.0 +. (2.0 *. x.(0) *. x.(1)) in
  let d = sample (rng0 ()) 4 200 f in
  let m = Mars.fit d in
  let e = Effects.interaction_effect m.Model.predict ~dims:4 0 1 in
  Alcotest.(check (float 0.3)) "interaction effect ~ 2" 2.0 e

let test_mars_prunes () =
  (* pure noise target: backward pruning should cut nearly everything *)
  let rng = rng0 () in
  let d = sample rng 5 80 (fun _ -> Emc_util.Rng.float rng 0.01) in
  let m = Mars.fit d in
  cb
    (Printf.sprintf "small model on noise (%d terms)" (List.length m.Model.terms))
    true
    (List.length m.Model.terms <= 8)

(* ---------------- pinned MARS bits ---------------- *)

(* Speed work on MARS must not move a bit: these seeded designs are fitted
   and mu, sd, every weight and every hinge knot are compared as [%h]
   hex-float strings, with each basis's factors, against values recorded
   by a fit that built every least-squares system anew. Each basis
   line reads "weight ±dim@knot ...", + for max(0, x - knot). A deliberate
   change to the model (another knot rule or pruning criterion) pastes the
   new actual lines over [mars_golden] and says so in the commit. *)

let mars_level_counts = [| 2; 11; 9; 21; 5; 6; 4; 3 |]

(* [n] points of 25 dims; dimension [d] takes one of
   [mars_level_counts.(d mod 8)] evenly spaced coded levels in [-1,1], like
   the paper space's flags and ranges, so most sums are inexact. The
   response has a hinge, a slope, an interaction, a kink and noise around a
   cycles-like mean. *)
let mars_design ~seed n =
  let rng = Emc_util.Rng.create seed in
  let coded d =
    let l = mars_level_counts.(d mod Array.length mars_level_counts) in
    -1.0 +. (2.0 *. float_of_int (Emc_util.Rng.int rng l) /. float_of_int (l - 1))
  in
  let x = Array.init n (fun _ -> Array.init 25 coded) in
  let y =
    Array.map
      (fun x ->
        1000.0
        +. (300.0 *. Float.max 0.0 (x.(0) -. 0.25))
        -. (200.0 *. x.(1))
        +. (150.0 *. x.(2) *. x.(3))
        +. (80.0 *. Float.abs x.(4))
        +. (10.0 *. Emc_util.Rng.gaussian rng))
      x
  in
  Dataset.create x y

(* dimension 5 duplicates 0, dimension 6 negates 1, dimension 7 is constant *)
let collinear (d : Dataset.t) =
  let x =
    Array.map
      (fun r ->
        let r = Array.copy r in
        r.(5) <- r.(0);
        r.(6) <- -.r.(1);
        r.(7) <- 0.5;
        r)
      d.Dataset.x
  in
  Dataset.create x d.Dataset.y

let mars_cases =
  [
    ("quick 110x25", fun () -> Mars.fit (mars_design ~seed:7 110));
    ("tiny 36x25", fun () -> Mars.fit (mars_design ~seed:11 36));
    ("collinear 110x25", fun () -> Mars.fit (collinear (mars_design ~seed:13 110)));
    ("degree 1, 7 terms", fun () -> Mars.fit ~max_degree:1 ~max_terms:7 (mars_design ~seed:17 110));
  ]

let mars_bits (m : Model.t) =
  match m.Model.repr with
  | Some (Repr.Mars { bases; weights; mu; sd }) ->
      Printf.sprintf "mu %h sd %h" mu sd
      :: Array.to_list
           (Array.mapi
              (fun i b ->
                String.concat " "
                  (Printf.sprintf "%h" weights.(i)
                  :: List.map
                       (fun (f : Repr.factor) ->
                         Printf.sprintf "%c%d@%h" (if f.positive then '+' else '-') f.dim f.knot)
                       b))
              bases)
  | _ -> Alcotest.fail "Mars.fit did not return a MARS repr"

let mars_golden =
  [
    ( "quick 110x25",
      [
        "mu 0x1.23dfcfd26cfdep+10 sd 0x1.67711bc0a40f5p+7";
        "-0x1.3b2362637aa06p-2";
        "-0x1.197917e7521fap+0 +1@-0x1.3333333333333p-1";
        "0x1.f3565db012fecp-1 -1@-0x1.3333333333333p-1";
        "0x1.4fa17310b9df8p-1 +0@-0x1p+0";
        "0x1.8fe8e95b622a5p-2 +4@0x0p+0";
        "0x1.a55c98f6fd0c3p-1 +3@-0x1.9999999999998p-3 -4@0x0p+0";
        "-0x1.cdbe07d4eb192p-2 +3@0x1.9999999999998p-3 -2@0x1.8p-1";
        "0x1.34d0606be66bbp-2 -3@0x1.9999999999998p-3 -2@0x1.8p-1";
      ] );
    ( "tiny 36x25",
      [
        "mu 0x1.256c0484362e4p+10 sd 0x1.557794b9d4fbep+7";
        "0x1.19c71c71a57e6p-50";
      ] );
    ( "collinear 110x25",
      [
        "mu 0x1.1b722df5e3bbep+10 sd 0x1.9a34aa1a9e7e7p+7";
        "-0x1.fd1f512777599p-2";
        "-0x1.fe3647917ffc8p-1 +1@0x1.9999999999998p-3";
        "0x1.f39d6394adcecp-1 -1@0x1.9999999999998p-3";
        "0x1.19d1ef908b5ffp-1 +0@-0x1p+0";
        "0x1.7c86dd2dec827p-2 +4@0x0p+0";
        "0x1.8f10ba8f5fa67p-2 -4@0x0p+0";
        "0x1.2161d011f75b4p-1 +3@0x1.3333333333334p-1";
        "-0x1.7ade72ff1c301p-3 -3@0x1.3333333333334p-1";
        "-0x1.5d6cc36995801p-1 +2@0x1p-2 -3@0x1.3333333333334p-1";
        "0x1.77fbf673c5913p-1 -2@0x1p-2 -3@0x1.3333333333334p-1";
        "-0x1.c99a497064a71p-2 -2@0x1.8p-1";
        "-0x1.6f880e25d31adp-1 +3@0x1.3333333333334p-1 -2@0x1.8p-1";
      ] );
    ( "degree 1, 7 terms",
      [
        "mu 0x1.1bff6954f781ap+10 sd 0x1.8015fd8294badp+7";
        "-0x1.0e707ac767017p+0";
        "-0x1.25af71487d854p+0 +1@0x1.9999999999998p-3";
        "0x1.00dc0a52b5aefp+0 -1@0x1.9999999999998p-3";
        "0x1.3c883d56888e1p-1 +0@-0x1p+0";
        "0x1.3b2d84c73cac4p-1 +4@0x0p+0";
        "0x1.29ef7677b5644p-1 -4@0x0p+0";
      ] );
  ]

let test_mars_bits_pinned () =
  List.iter
    (fun (name, fit) ->
      Alcotest.(check (list string)) name (List.assoc name mars_golden) (mars_bits (fit ())))
    mars_cases

(* ---------------- pinned rank, linear and RBF bits ---------------- *)

(* The other families are pinned on the quick-sized MARS design the same
   way: every fitted number is printed as [%h], and the MD5 of the lines
   is compared against the digest of a fit that factored every system from
   row 0 through [Mat.get]. A deliberate change to a model pastes the new
   digest here and says so in the commit. *)
let hex_digest floats =
  Digest.to_hex (Digest.string (String.concat " " (List.map (Printf.sprintf "%h") floats)))

let test_rank_bits_pinned () =
  match (Rank.fit ~rng:(Emc_util.Rng.create 7) (mars_design ~seed:7 110)).Model.repr with
  | Some (Repr.Rank { beta; _ }) ->
      Alcotest.(check int) "351 columns" 351 (Array.length beta);
      Alcotest.(check string) "beta" "f02adc327762f0aa2ab62dc13168a1a4"
        (hex_digest (Array.to_list beta))
  | _ -> Alcotest.fail "Rank.fit did not return a rank repr"

let test_linear_rbf_bits_pinned () =
  let d = mars_design ~seed:7 110 in
  (match (Linear.fit d).Model.repr with
  | Some (Repr.Linear { beta; mu; sd; _ }) ->
      Alcotest.(check int) "351 columns" 351 (Array.length beta);
      Alcotest.(check string) "linear" "9a30a788fd19f066a1323c73ffa96919"
        (hex_digest (mu :: sd :: Array.to_list beta))
  | _ -> Alcotest.fail "Linear.fit did not return a linear repr");
  match (Rbf.fit d).Model.repr with
  | Some (Repr.Rbf { centers; radii; weights; mu; sd; _ }) ->
      Alcotest.(check int) "centers" 27 (Array.length centers);
      Alcotest.(check string) "rbf" "a403e7a58b05a4e2bb234babecb5d467"
        (hex_digest
           (mu :: sd
           :: List.concat
                [ Array.to_list weights; Array.to_list radii;
                  List.concat_map Array.to_list (Array.to_list centers) ]))
  | _ -> Alcotest.fail "Rbf.fit did not return an RBF repr"

(* [Rank.fit]'s gradient ascent as three passes per accepted pair: the two
   scores, each a dot product in feature order, then the update. The fit
   carries each update into the next pair's scoring pass and applies the
   last one after the final epoch; both must give these bits. Responses
   come from three values and NaN, so pairs are skipped for ties and for
   NaN, and odd pair counts with one epoch end on a pending update. *)
let reference_rank ~interactions ~epochs ~pairs_per_epoch ~rng (d : Dataset.t) =
  let n = Dataset.size d in
  let rows = Array.map (Repr.expand ~interactions) d.Dataset.x in
  let beta = Array.make (Repr.n_features ~interactions (Dataset.dims d)) 0.0 in
  let y = d.Dataset.y in
  let dot row =
    let acc = ref 0.0 in
    Array.iteri (fun f v -> acc := !acc +. (v *. beta.(f))) row;
    !acc
  in
  for _ = 1 to epochs do
    for _ = 1 to pairs_per_epoch do
      let i = Emc_util.Rng.int rng n and j = Emc_util.Rng.int rng n in
      let c = Metrics.nan_last y.(i) y.(j) in
      if i <> j && (not (Float.is_nan y.(i))) && (not (Float.is_nan y.(j))) && c <> 0 then begin
        let lo, hi = if c < 0 then (i, j) else (j, i) in
        let s = dot rows.(hi) -. dot rows.(lo) in
        let step = 0.05 *. (1.0 /. (1.0 +. exp s)) in
        let rh = rows.(hi) and rl = rows.(lo) in
        Array.iteri (fun f b -> beta.(f) <- b +. (step *. (rh.(f) -. rl.(f)))) beta
      end
    done
  done;
  beta

let prop_rank_fit_bits =
  QCheck.Test.make ~name:"rank fit matches a three-pass loop bit for bit" ~count:200
    QCheck.(quad (int_range 2 30) (int_range 1 3) (int_range 0 20) (int_range 0 10_000))
    (fun (n, epochs, half, seed) ->
      let rng = Emc_util.Rng.create seed in
      let k = 1 + (seed mod 4) and interactions = seed mod 3 <> 0 in
      let x = Array.init n (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)) in
      let y =
        Array.init n (fun _ -> [| 1.0; 2.0; 3.0; Float.nan |].(Emc_util.Rng.int rng 4))
      in
      let d = Dataset.create x y and pairs_per_epoch = (2 * half) + 1 in
      let want =
        reference_rank ~interactions ~epochs ~pairs_per_epoch ~rng:(Emc_util.Rng.create seed) d
      in
      match
        (Rank.fit ~interactions ~epochs ~pairs_per_epoch ~rng:(Emc_util.Rng.create seed) d)
          .Model.repr
      with
      | Some (Repr.Rank { beta; _ }) ->
          Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) beta want
      | _ -> false)

(* ---------------- tree: the split memo ---------------- *)

(* The tree grower without a memo: every budget grows its tree from the
   root, and each candidate split is scored on fresh lists and arrays.
   Kept here only as the reference that [Tree.fit] and [Tree.fit_grid]
   must equal bit for bit. *)
let reference_tree ?(min_leaf = 3) ~max_leaves (d : Dataset.t) =
  let sse_of indices =
    let ys = Array.map (fun i -> d.Dataset.y.(i)) indices in
    let m = Emc_util.Stats.mean ys in
    Array.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 ys
  in
  let leaf_of indices =
    Tree.Leaf
      { indices; mean = Emc_util.Stats.mean (Array.map (fun i -> d.Dataset.y.(i)) indices) }
  in
  let best_split indices =
    let base = sse_of indices in
    let best = ref None in
    for dim = 0 to Dataset.dims d - 1 do
      let vals = Array.map (fun i -> d.Dataset.x.(i).(dim)) indices in
      let uniq = List.sort_uniq compare (Array.to_list vals) in
      let mids =
        let rec go = function a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: go rest | _ -> [] in
        go uniq
      in
      let m = List.length mids in
      let thresholds =
        if m <= 8 then mids else List.filteri (fun i _ -> i mod ((m / 8) + 1) = 0) mids
      in
      List.iter
        (fun thr ->
          let side keep =
            Array.of_list
              (List.filter (fun i -> keep d.Dataset.x.(i).(dim)) (Array.to_list indices))
          in
          let l = side (fun v -> v <= thr) and r = side (fun v -> v > thr) in
          if Array.length l >= min_leaf && Array.length r >= min_leaf then begin
            let red = base -. sse_of l -. sse_of r in
            match !best with
            | Some (r', _, _, _, _) when r' >= red -> ()
            | _ -> best := Some (red, dim, thr, l, r)
          end)
        thresholds
    done;
    !best
  in
  let rec grow indices budget =
    if budget <= 1 then leaf_of indices
    else
      match best_split indices with
      | Some (red, dim, thr, l, r) when red > 1e-12 ->
          let nl = Array.length l and nr = Array.length r in
          let bl = max 1 (budget * nl / (nl + nr)) in
          let br = max 1 (budget - bl) in
          Tree.Split { dim; thr; left = grow l bl; right = grow r br }
      | _ -> leaf_of indices
  in
  grow (Array.init (Dataset.size d) Fun.id) max_leaves

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let rec same_tree a b =
  match (a, b) with
  | Tree.Leaf l, Tree.Leaf l' -> l.indices = l'.indices && same_bits l.mean l'.mean
  | Tree.Split s, Tree.Split s' ->
      s.dim = s'.dim && same_bits s.thr s'.thr && same_tree s.left s'.left
      && same_tree s.right s'.right
  | _ -> false

(* Datasets that reach every rule that decides a tree's bits: columns of
   NaN, -0, +0, infinities and neighbouring floats (whose midpoint is one
   of them, so [<=] and [<] part differently), repeated levels, columns
   with more than 8 distinct values (thresholds subsampled), a copy of
   column 0 (reductions tied exactly across dimensions), and in some
   datasets non-finite responses. *)
let tree_case_gen =
  let open QCheck2.Gen in
  let special =
    [| Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 1.0; Float.succ 1.0; -1.0 |]
  in
  let column n =
    oneof
      [ array_repeat n (oneofa special);
        array_repeat n (map float_of_int (int_range (-2) 2));
        array_repeat n (float_range (-2.0) 2.0);
        array_repeat n (frequency [ (1, oneofa special); (2, float_range (-2.0) 2.0) ]) ]
  in
  let response =
    frequency [ (30, float_range (-10.0) 10.0); (3, oneofl [ 0.0; -0.0; 1.0 ]);
                (1, oneofl [ Float.nan; Float.infinity ]) ]
  in
  let* n = int_range 1 40 and* k = int_range 1 4 in
  let* cols = array_repeat k (column n) and* copy0 = bool in
  if copy0 && k > 1 then cols.(k - 1) <- Array.copy cols.(0);
  let* finite = frequency [ (7, pure true); (1, pure false) ] in
  let* y = array_repeat n (if finite then float_range (-10.0) 10.0 else response) in
  let* min_leaf = int_range 1 4 and* budgets = list_size (int_range 1 5) (int_range 1 32) in
  let x = Array.init n (fun i -> Array.init k (fun dim -> cols.(dim).(i))) in
  pure (Dataset.create x y, min_leaf, budgets)

let prop_tree_matches_reference =
  QCheck2.Test.make ~name:"trees equal the unmemoized grower bit for bit" ~count:400
    ~print:(fun ((d : Dataset.t), min_leaf, budgets) ->
      Printf.sprintf "min_leaf %d, budgets [%s], x [%s], y [%s]" min_leaf
        (String.concat "; " (List.map string_of_int budgets))
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun r -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") r)))
                 d.Dataset.x)))
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") d.Dataset.y))))
    tree_case_gen
    (fun (d, min_leaf, budgets) ->
      let want = List.map (fun b -> reference_tree ~min_leaf ~max_leaves:b d) budgets in
      List.for_all2 same_tree (Tree.fit_grid ~min_leaf ~max_leaves:budgets d) want
      && List.for_all2 (fun b w -> same_tree (Tree.fit ~min_leaf ~max_leaves:b d) w) budgets want)

(* Every tree read from one memo equals the one-budget fit, whatever the
   order of the budgets: a larger budget expands nodes a smaller one then
   reuses, and a smaller one first leaves them for a larger one to expand. *)
let test_tree_grid_equals_single_fits () =
  let d = mars_design ~seed:7 110 in
  List.iter
    (fun budgets ->
      List.iter2
        (fun b t ->
          cb (Printf.sprintf "budget %d" b) true (same_tree t (Tree.fit ~max_leaves:b d)))
        budgets
        (Tree.fit_grid ~max_leaves:budgets d))
    [ [ 4; 6; 8; 12; 16; 24; 32 ]; [ 32; 1; 12; 4; 12; 64; 2 ] ]

(* The size search reads its seven trees from one memo and scores splits
   in reused buffers: a quick-sized fit allocates under 2M minor words
   (growing each tree from the root on fresh lists took 6.8M). *)
let test_rbf_fit_allocation () =
  let d = mars_design ~seed:7 110 in
  ignore (Sys.opaque_identity (Rbf.fit d));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Rbf.fit d));
  let words = Gc.minor_words () -. before in
  cb (Printf.sprintf "%.0f minor words < 2M" words) true (words < 2e6)

(* ---------------- effects ---------------- *)

let test_effects_of_linear_model () =
  let f x = 10.0 +. (4.0 *. x.(0)) -. (2.0 *. x.(1)) +. (6.0 *. x.(0) *. x.(2)) in
  let dims = 3 in
  cf "main 0" 4.0 (Effects.main_effect f ~dims 0);
  cf "main 1" (-2.0) (Effects.main_effect f ~dims 1);
  cf "main 2 (no standalone term)" 0.0 (Effects.main_effect f ~dims 2);
  cf "interaction 0,2" 6.0 (Effects.interaction_effect f ~dims 0 2);
  cf "interaction 0,1" 0.0 (Effects.interaction_effect f ~dims 0 1);
  cf "constant" 10.0 (Effects.constant f ~dims)

let test_top_effects_sorted () =
  let f x = (5.0 *. x.(0)) +. x.(1) in
  let tops = Effects.top_effects f ~dims:2 ~names:[| "big"; "small" |] in
  match tops with
  | (n1, e1) :: (n2, _) :: _ ->
      Alcotest.(check string) "biggest first" "big" n1;
      cf "value" 5.0 e1;
      Alcotest.(check string) "second" "small" n2
  | _ -> Alcotest.fail "expected two effects"

let test_mars_degree_one_excludes_interactions () =
  let f x = 1.0 +. (2.0 *. x.(0) *. x.(1)) in
  let d = sample (rng0 ()) 3 150 f in
  let m = Mars.fit ~max_degree:1 d in
  (* no basis function may involve two dimensions *)
  List.iter
    (fun (name, _) ->
      cb ("additive term only: " ^ name) false
        (String.length name > 0
        && String.split_on_char '*' name |> List.length > 1))
    m.Model.terms

let test_rbf_explicit_size_grid () =
  let f x = x.(0) +. x.(1) in
  let d = sample (rng0 ()) 2 60 f in
  let m = Rbf.fit ~size_grid:[ 6 ] d in
  (* terms are the bias plus one center/weight pair per RBF center *)
  let centers =
    List.filter (fun (n, _) -> String.length n >= 6 && String.sub n 0 6 = "center") m.Model.terms
  in
  Alcotest.(check int) "six center terms" 6 (List.length centers);
  cb "bias term present" true (List.mem_assoc "bias" m.Model.terms);
  Alcotest.(check int) "n_params = centers + bias" 7 m.Model.n_params

let test_dataset_append () =
  let a = Dataset.create [| [| 1.0 |] |] [| 10.0 |] in
  let b = Dataset.create [| [| 2.0 |]; [| 3.0 |] |] [| 20.0; 30.0 |] in
  let c = Dataset.append a b in
  Alcotest.(check int) "size" 3 (Dataset.size c);
  cf "order preserved" 20.0 c.Dataset.y.(1)

let test_metrics_perfect_predictor () =
  let d = Dataset.create [| [| 0.0 |]; [| 1.0 |] |] [| 5.0; 7.0 |] in
  let predict x = if x.(0) = 0.0 then 5.0 else 7.0 in
  cf "mape 0" 0.0 (Metrics.mape predict d);
  cf "rmse 0" 0.0 (Metrics.rmse predict d);
  cf "sse 0" 0.0 (Metrics.sse predict d)

let prop_tree_predicts_leaf_means =
  QCheck.Test.make ~name:"tree prediction is bounded by target range" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Emc_util.Rng.create seed in
      let f x = x.(0) *. 3.0 in
      let d = sample rng 2 60 f in
      let t = Tree.fit ~max_leaves:8 d in
      let lo = Emc_util.Stats.min d.Dataset.y and hi = Emc_util.Stats.max d.Dataset.y in
      Array.for_all
        (fun x ->
          let p = Tree.predict t x in
          p >= lo -. 1e-9 && p <= hi +. 1e-9)
        d.Dataset.x)

(* ---------------- mape zero-response policy ---------------- *)

let test_mape_skip_policy () =
  (* |y| = 0 points are skipped and counted, not divided by *)
  let d = Dataset.create [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |] |] [| 0.0; 10.0; 20.0 |] in
  let predict x = (x.(0) *. 10.0) +. 1.0 in
  let m, skipped = Metrics.mape_with_skipped predict d in
  Alcotest.(check int) "one point skipped" 1 skipped;
  cf "mape over the used points" 7.5 m;
  cf "mape is the same value" m (Metrics.mape predict d);
  (* every response zero: NaN with everything skipped, never an exception *)
  let dz = Dataset.create [| [| 0.0 |]; [| 1.0 |] |] [| 0.0; 0.0 |] in
  let mz, sz = Metrics.mape_with_skipped predict dz in
  cb "all-zero responses give NaN" true (Float.is_nan mz);
  Alcotest.(check int) "all points skipped" 2 sz

(* ---------------- rank-quality metrics ---------------- *)

let test_nan_last_orders () =
  cb "numbers ascend" true (Metrics.nan_last 1.0 2.0 < 0);
  cb "nan sorts after numbers" true (Metrics.nan_last Float.nan 1e30 > 0);
  cb "number before nan" true (Metrics.nan_last (-1e30) Float.nan < 0);
  Alcotest.(check int) "nan ties nan" 0 (Metrics.nan_last Float.nan Float.nan);
  (* strength_order: descending |coef|, NaN-coefficient terms last *)
  let sorted =
    List.sort Metrics.strength_order
      [ ("small", 1.0); ("nan", Float.nan); ("big-neg", -9.0); ("mid", 4.0) ]
  in
  Alcotest.(check (list string)) "strongest first, NaN last"
    [ "big-neg"; "mid"; "small"; "nan" ]
    (List.map fst sorted)

let test_average_ranks_ties () =
  let r = Metrics.average_ranks [| 10.0; 20.0; 10.0; 30.0 |] in
  Alcotest.(check (array (float 1e-9))) "tied values share the mean position"
    [| 1.5; 3.0; 1.5; 4.0 |] r;
  let r = Metrics.average_ranks [| Float.nan; 5.0 |] in
  cf "NaN ranks last" 2.0 r.(0);
  cf "finite value ranks first" 1.0 r.(1)

let test_spearman_orders () =
  let ys = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  let d = Dataset.create (Array.map (fun v -> [| v |]) ys) ys in
  cf "perfect order" 1.0 (Metrics.spearman (fun x -> x.(0)) d);
  cf "inverted order" (-1.0) (Metrics.spearman (fun x -> -.x.(0)) d);
  (* Spearman only sees ranks: any monotone transform scores 1 *)
  cf "monotone transform" 1.0 (Metrics.spearman (fun x -> exp (x.(0) /. 10.0)) d);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.spearman: length mismatch") (fun () ->
      ignore (Metrics.spearman_arrays [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Metrics.spearman: need >= 2 samples") (fun () ->
      ignore (Metrics.spearman_arrays [| 1.0 |] [| 1.0 |]))

let test_top_k_metrics () =
  let ys = [| 40.0; 10.0; 30.0; 20.0 |] in
  let d = Dataset.create (Array.map (fun v -> [| v |]) ys) ys in
  (* a perfect ranker always captures the actual best point *)
  cf "perfect regret" 0.0 (Metrics.top_k_regret ~k:1 (fun x -> x.(0)) d);
  cf "perfect precision" 1.0 (Metrics.precision_at_k ~k:2 (fun x -> x.(0)) d);
  (* an inverted ranker's top-1 is the actual worst: regret (40-10)/10 *)
  cf "inverted regret" 300.0 (Metrics.top_k_regret ~k:1 (fun x -> -.x.(0)) d);
  cf "inverted precision" 0.0 (Metrics.precision_at_k ~k:2 (fun x -> -.x.(0)) d);
  (* k beyond the dataset clamps: every point is in the top, regret 0 *)
  cf "k clamps" 0.0 (Metrics.top_k_regret ~k:100 (fun x -> -.x.(0)) d);
  Alcotest.check_raises "k < 1"
    (Invalid_argument "Metrics.top_k_regret: k must be >= 1") (fun () ->
      ignore (Metrics.top_k_regret ~k:0 (fun x -> x.(0)) d))

(* Spearman is a function of the joint order only: permuting the sample
   rows (predictions and responses together) must not change it. *)
let prop_spearman_permutation_invariant =
  QCheck.Test.make ~name:"spearman permutation invariance" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 30) (pair (float_range (-100.) 100.) (float_range (-100.) 100.)))
    (fun pairs ->
      let a = Array.of_list (List.map fst pairs) in
      let b = Array.of_list (List.map snd pairs) in
      let n = Array.length a in
      let rot k arr = Array.init n (fun i -> arr.((i + k) mod n)) in
      let r0 = Metrics.spearman_arrays a b in
      let r1 = Metrics.spearman_arrays (rot (n / 2) a) (rot (n / 2) b) in
      (Float.is_nan r0 && Float.is_nan r1) || Float.abs (r0 -. r1) < 1e-9)

(* ---------------- pairwise ranking model ---------------- *)

let test_rank_fit_recovers_order () =
  let rng = rng0 () in
  let d = sample rng 3 60 (fun x -> (2.0 *. x.(0)) -. x.(1) +. (0.3 *. x.(0) *. x.(2))) in
  let m = Rank.fit ~rng:(rng0 ()) d in
  Alcotest.(check string) "technique" "rank-pairwise" m.Model.technique;
  cb "score order tracks the response" true (Metrics.spearman m.Model.predict d > 0.9);
  (* deterministic: same rng state, same coefficients *)
  let m2 = Rank.fit ~rng:(rng0 ()) d in
  Array.iter
    (fun x -> cf "same prediction" (m.Model.predict x) (m2.Model.predict x))
    (Array.sub d.Dataset.x 0 5)

let test_rank_fit_skips_nan_responses () =
  let rng = rng0 () in
  let d = sample rng 2 40 (fun x -> x.(0) -. (2.0 *. x.(1))) in
  let y = Array.copy d.Dataset.y in
  y.(3) <- Float.nan;
  y.(17) <- Float.nan;
  let dn = Dataset.create d.Dataset.x y in
  let m = Rank.fit ~rng:(rng0 ()) dn in
  (* NaN responses carry no order information and must not poison the fit *)
  cb "finite scores" true
    (Array.for_all (fun x -> Float.is_finite (m.Model.predict x)) dn.Dataset.x);
  cb "still ranks the finite points" true (Metrics.spearman m.Model.predict d > 0.85)

(* ---- the forward pass and the rank fit as they were before they read
   unchecked ---- *)

(* Verbatim copies of the checked [Mars.dot], [store_pair] and [solve], on
   [Mars.normal], and of [Rank.fit]: each unchecked kernel must give their
   bits, and reordering any sum in one must fail a property below. *)
module Parent = struct
  open Emc_linalg

  type normal = Mars.normal = {
    y : float array;
    cols : float array array;
    gram : float array array;
    xty : float array;
    sys : Mat.t;
    chol : Mat.t;
    w : float array;
    p : float array;
  }

  let ridge = 1e-9

  let[@inline] dot a b =
    let acc = ref 0.0 in
    for r = 0 to Array.length a - 1 do
      acc := !acc +. (a.(r) *. b.(r))
    done;
    !acc

  let store_pair ne x ~parent ~dim ~knot ~at =
    let pc = ne.cols.(parent) and c1 = ne.cols.(at) and c2 = ne.cols.(at + 1) in
    let y = ne.y and g1 = ne.gram.(at) and g2 = ne.gram.(at + 1) in
    let n = Array.length pc in
    let s11 = ref 0.0 and s21 = ref 0.0 and s22 = ref 0.0 and t1 = ref 0.0 and t2 = ref 0.0 in
    for r = 0 to n - 1 do
      let pv = pc.(r) and xd = x.(r).(dim) in
      let v1 = xd -. knot and v2 = knot -. xd in
      let a = if v1 > 0.0 then pv *. v1 else 0.0 in
      let b = if v2 > 0.0 then pv *. v2 else 0.0 in
      c1.(r) <- a;
      c2.(r) <- b;
      s11 := !s11 +. (a *. a);
      s21 := !s21 +. (a *. b);
      s22 := !s22 +. (b *. b);
      t1 := !t1 +. (a *. y.(r));
      t2 := !t2 +. (b *. y.(r))
    done;
    let j = ref 0 in
    while !j + 1 < at do
      let j0 = !j in
      let ca = ne.cols.(j0) and cb = ne.cols.(j0 + 1) in
      let a1 = ref 0.0 and b1 = ref 0.0 and a2 = ref 0.0 and b2 = ref 0.0 in
      for r = 0 to n - 1 do
        let u = ca.(r) and v = cb.(r) and e1 = c1.(r) and e2 = c2.(r) in
        a1 := !a1 +. (u *. e1);
        b1 := !b1 +. (v *. e1);
        a2 := !a2 +. (u *. e2);
        b2 := !b2 +. (v *. e2)
      done;
      g1.(j0) <- !a1;
      g1.(j0 + 1) <- !b1;
      g2.(j0) <- !a2;
      g2.(j0 + 1) <- !b2;
      j := j0 + 2
    done;
    if !j < at then begin
      let cj = ne.cols.(!j) in
      let a1 = ref 0.0 and a2 = ref 0.0 in
      for r = 0 to n - 1 do
        let u = cj.(r) in
        a1 := !a1 +. (u *. c1.(r));
        a2 := !a2 +. (u *. c2.(r))
      done;
      g1.(!j) <- !a1;
      g2.(!j) <- !a2
    end;
    g1.(at) <- !s11;
    g2.(at) <- !s21;
    g2.(at + 1) <- !s22;
    ne.xty.(at) <- !t1;
    ne.xty.(at + 1) <- !t2

  let solve ne ~from idx =
    let m = Array.length idx in
    for i = from to m - 1 do
      let gi = ne.gram.(idx.(i)) in
      for j = 0 to i do
        let v = gi.(idx.(j)) in
        Mat.set ne.sys i j (if i = j then v +. ridge else v)
      done
    done;
    match Mat.cholesky_rows ne.sys ne.chol ~from ~upto:m with
    | exception Failure _ ->
        Array.fill ne.w 0 m 0.0;
        infinity
    | () ->
        let w = ne.w and p = ne.p and y = ne.y in
        for i = 0 to m - 1 do
          w.(i) <- ne.xty.(idx.(i))
        done;
        Mat.cholesky_solve ne.chol m w w;
        (* every prediction sums its terms in column order, two columns per
           pass, walking each column contiguously *)
        Array.fill p 0 (Array.length p) 0.0;
        let i = ref 0 in
        while !i + 1 < m do
          let i0 = !i in
          let ca = ne.cols.(idx.(i0)) and cb = ne.cols.(idx.(i0 + 1)) in
          let wa = w.(i0) and wb = w.(i0 + 1) in
          for r = 0 to Array.length p - 1 do
            p.(r) <- p.(r) +. (wa *. ca.(r)) +. (wb *. cb.(r))
          done;
          i := i0 + 2
        done;
        if !i < m then begin
          let col = ne.cols.(idx.(!i)) and wi = w.(!i) in
          for r = 0 to Array.length p - 1 do
            p.(r) <- p.(r) +. (wi *. col.(r))
          done
        end;
        let sse = ref 0.0 in
        for r = 0 to Array.length y - 1 do
          let e = p.(r) -. y.(r) in
          sse := !sse +. (e *. e)
        done;
        !sse

  let technique = "rank-pairwise"

  let fit ?(interactions = true) ?(epochs = 60) ?(lr = 0.05) ?pairs_per_epoch ?(names = [||])
      ~rng (d : Dataset.t) : Model.t =
    let n = Dataset.size d in
    let k = Dataset.dims d in
    let names = if Array.length names = k then names else Array.init k (Printf.sprintf "x%d") in
    let rows = Array.map (Repr.expand ~interactions) d.Dataset.x in
    let p = Repr.n_features ~interactions k in
    let pairs_per_epoch = match pairs_per_epoch with Some m -> m | None -> 4 * n in
    let beta = Array.make p 0.0 in
    let y = d.Dataset.y in
    (* An accepted pair's update waits for the next accepted pair: one pass
       over beta applies it and computes the next pair's two scores from the
       updated entries, each score summing its products in feature order.
       Until a pair is accepted the pending update is a zero step over zero
       rows, which adds +0 to entries that are all +0: no bit changes. *)
    let zero = Array.make p 0.0 in
    let step = ref 0.0 and uh = ref zero and ul = ref zero in
    for _ = 1 to epochs do
      for _ = 1 to pairs_per_epoch do
        let i = Emc_util.Rng.int rng n and j = Emc_util.Rng.int rng n in
        (* NaN responses carry no order information; such pairs are skipped
           (the draws still consume rng state, keeping the stream aligned) *)
        let c = Metrics.nan_last y.(i) y.(j) in
        if i <> j && (not (Float.is_nan y.(i))) && (not (Float.is_nan y.(j))) && c <> 0 then begin
          let lo, hi = if c < 0 then (i, j) else (j, i) in
          let rh = rows.(hi) and rl = rows.(lo) in
          let st = !step and ph = !uh and pl = !ul in
          let sh = ref 0.0 and sl = ref 0.0 in
          for f = 0 to p - 1 do
            let b = beta.(f) +. (st *. (ph.(f) -. pl.(f))) in
            beta.(f) <- b;
            sh := !sh +. (rh.(f) *. b);
            sl := !sl +. (rl.(f) *. b)
          done;
          let g = 1.0 /. (1.0 +. exp (!sh -. !sl)) in
          step := lr *. g;
          uh := rh;
          ul := rl
        end
      done
    done;
    let st = !step and ph = !uh and pl = !ul in
    for f = 0 to p - 1 do
      beta.(f) <- beta.(f) +. (st *. (ph.(f) -. pl.(f)))
    done;
    let fnames = Linear.feature_names ~interactions names in
    let terms =
      Array.to_list (Array.mapi (fun i b -> (fnames.(i), b)) beta)
      |> List.filter (fun (_, b) -> Float.abs b > 1e-12)
    in
    let repr = Repr.Rank { interactions; beta } in
    {
      Model.technique;
      predict = Repr.eval repr;
      n_params = p;
      terms;
      repr = Some repr;
    }
end

let bits_eq = Helpers.bits_eq
let all_bits = Helpers.all_bits
let wide = Helpers.wide

let normal_bits (a : Mars.normal) (b : Mars.normal) =
  let cap = Array.length a.cols in
  let mat_bits x y =
    let ok = ref true in
    for i = 0 to cap - 1 do
      for j = 0 to cap - 1 do
        if not (bits_eq (Emc_linalg.Mat.get x i j) (Emc_linalg.Mat.get y i j)) then ok := false
      done
    done;
    !ok
  in
  Array.for_all2 all_bits a.cols b.cols
  && Array.for_all2 all_bits a.gram b.gram
  && all_bits a.xty b.xty && all_bits a.w b.w && all_bits a.p b.p && mat_bits a.sys b.sys
  && mat_bits a.chol b.chol

(* The forward pass's calls on random data: an intercept column (and on
   odd seeds one more random column), then hinge pairs stored in the next
   free slots on random parents, dimensions and knots, each followed by a
   resumed solve of the columns so far; then a solve of a random
   ascending subset from row 0. Row counts run from 1, and pairs land at
   odd and even slots, so the Gram pass ends with and without a lone
   column and the prediction pass with and without a lone weight;
   [Mars.dot] fills the first columns' entries as in a fit. Both normals
   must agree on every cell, and every returned SSE on its bits. *)
let prop_mars_kernels_parent_bits =
  QCheck.Test.make ~name:"Mars.dot, store_pair and solve keep their checked parents' bits"
    ~count:300
    QCheck.(make Gen.(quad (int_range 1 40) (int_range 1 5) (int_range 1 6) (int_range 0 10_000)))
    (fun (n, k, pairs, seed) ->
      let rng = Emc_util.Rng.create seed in
      let x = Array.init n (fun _ -> Array.init k (fun _ -> wide rng)) in
      let y = Array.init n (fun _ -> wide rng) in
      let first = 1 + (seed mod 2) in
      let cap = first + (2 * pairs) in
      let a = Mars.normal ~cap y and b = Mars.normal ~cap y in
      let ok = ref true in
      let check v v' = if not (bits_eq v v') then ok := false in
      let extra = Array.init n (fun _ -> wide rng) in
      let fill (ne : Mars.normal) dot =
        Array.fill ne.cols.(0) 0 n 1.0;
        if first = 2 then Array.blit extra 0 ne.cols.(1) 0 n;
        for i = 0 to first - 1 do
          for j = 0 to i do
            ne.gram.(i).(j) <- dot ne.cols.(i) ne.cols.(j)
          done;
          ne.xty.(i) <- dot ne.cols.(i) y
        done
      in
      fill a Mars.dot;
      fill b Parent.dot;
      let idx = Array.init first Fun.id in
      check (Mars.solve a ~from:0 idx) (Parent.solve b ~from:0 idx);
      for q = 0 to pairs - 1 do
        let at = first + (2 * q) in
        let parent = Emc_util.Rng.int rng at and dim = Emc_util.Rng.int rng k in
        let knot = x.(Emc_util.Rng.int rng n).(dim) in
        Mars.store_pair a (Array.map (fun r -> r.(dim)) x) ~parent ~knot ~at;
        Parent.store_pair b x ~parent ~dim ~knot ~at;
        let idx = Array.init (at + 2) Fun.id in
        check (Mars.solve a ~from:at idx) (Parent.solve b ~from:at idx)
      done;
      let subset = List.filter (fun _ -> Emc_util.Rng.bool rng) (List.init cap Fun.id) in
      let idx = Array.of_list (if subset = [] then [ 0 ] else subset) in
      check (Mars.solve a ~from:0 idx) (Parent.solve b ~from:0 idx);
      !ok && normal_bits a b)

(* [Rank.fit] against its parent on random coded points with tied, NaN
   and wide responses, with and without interactions: the coefficients'
   bits. Coded points keep the scores small, so each pair's logistic
   weight, and with it every later coefficient, follows the last bit of
   its two scores. *)
let prop_rank_fit_parent_bits =
  QCheck.Test.make ~name:"Rank.fit keeps its checked parent's bits" ~count:200
    QCheck.(make Gen.(quad (int_range 1 30) (int_range 1 6) bool (int_range 0 10_000)))
    (fun (n, k, interactions, seed) ->
      let rng = Emc_util.Rng.create seed in
      let x = Array.init n (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)) in
      let y =
        Array.init n (fun _ ->
            match Emc_util.Rng.int rng 6 with 0 -> nan | 1 -> 1.0 | _ -> wide rng)
      in
      let d = Dataset.create x y in
      let fit f = f ~interactions ~epochs:3 ~rng:(Emc_util.Rng.create (seed + 1)) d in
      let beta (m : Model.t) =
        match m.Model.repr with Some (Repr.Rank { beta; _ }) -> beta | _ -> [||]
      in
      all_bits
        (beta (fit (fun ~interactions ~epochs ~rng d -> Rank.fit ~interactions ~epochs ~rng d)))
        (beta (fit (fun ~interactions ~epochs ~rng d -> Parent.fit ~interactions ~epochs ~rng d))))

(* The entry checks: an array too short for the indices raises
   [Invalid_argument] before a kernel reads or writes, so the normal's
   weights, predictions and columns keep their contents. *)
let test_forward_pass_entry_checks () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "dot, a short second operand" (fun () -> Mars.dot [| 1.0; 2.0 |] [| 1.0 |]);
  let y = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ne = Mars.normal ~cap:5 y in
  Array.fill ne.Mars.cols.(0) 0 4 1.0;
  Array.fill ne.Mars.w 0 5 7.0;
  Array.fill ne.Mars.p 0 4 7.0;
  raises "store_pair, a short data column" (fun () ->
      Mars.store_pair ne [| 0.5; 0.1; 0.2 |] ~parent:0 ~knot:0.0 ~at:1);
  raises "store_pair, a short stored column" (fun () ->
      Mars.store_pair { ne with cols = [| [| 1.0 |]; ne.Mars.cols.(1); ne.Mars.cols.(2); ne.Mars.cols.(3); ne.Mars.cols.(4) |] }
        [| 0.5; 0.1; 0.2; 0.3 |] ~parent:1 ~knot:0.0 ~at:3);
  cb "columns untouched" true (Array.for_all (( = ) 0.0) ne.Mars.cols.(1));
  raises "solve, columns out of order" (fun () -> Mars.solve ne ~from:0 [| 1; 0 |]);
  raises "solve, a column past the end" (fun () -> Mars.solve ne ~from:0 [| 0; 5 |]);
  raises "solve, a negative column" (fun () -> Mars.solve ne ~from:0 [| -1 |]);
  raises "solve, a start past the end" (fun () -> Mars.solve ne ~from:3 [| 0; 1 |]);
  raises "solve, a negative start" (fun () -> Mars.solve ne ~from:(-1) [| 0 |]);
  raises "solve, short predictions" (fun () -> Mars.solve { ne with p = [| 0.0 |] } ~from:0 [| 0 |]);
  cb "weights and predictions untouched" true
    (Array.for_all (( = ) 7.0) ne.Mars.w && Array.for_all (( = ) 7.0) ne.Mars.p);
  raises "Rank.fit, a point with fewer coordinates" (fun () ->
      Rank.fit ~rng:(rng0 ()) (Dataset.create [| [| 1.0; 2.0 |]; [| 1.0 |] |] [| 1.0; 2.0 |]))

let suite =
  [
    ("dataset basics", `Quick, test_dataset_basics);
    ("dataset sample", `Quick, test_dataset_sample);
    ("dataset standardize", `Quick, test_dataset_standardize);
    ("metrics", `Quick, test_metrics);
    ("bic penalizes complexity", `Quick, test_bic_penalizes_complexity);
    ("gcv penalizes complexity", `Quick, test_gcv_penalizes_complexity);
    ("linear recovers coefficients", `Quick, test_linear_recovers_coefficients);
    ("linear interactions", `Quick, test_linear_with_interactions);
    ("linear feature names", `Quick, test_linear_feature_names);
    ("tree piecewise constant", `Quick, test_tree_piecewise_constant);
    ("tree max leaves", `Quick, test_tree_respects_max_leaves);
    ("tree min leaf", `Quick, test_tree_min_leaf);
    ("rbf kernels", `Quick, test_rbf_kernels);
    ("rbf fits nonlinear", `Quick, test_rbf_fits_nonlinear);
    ("rbf all kernels", `Quick, test_rbf_all_kernels_reasonable);
    ("mars recovers hinge", `Quick, test_mars_recovers_hinge);
    ("mars finds interaction", `Quick, test_mars_finds_interaction);
    ("mars prunes noise", `Quick, test_mars_prunes);
    ("effects of known function", `Quick, test_effects_of_linear_model);
    ("top effects sorted", `Quick, test_top_effects_sorted);
    ("mars degree 1 is additive", `Quick, test_mars_degree_one_excludes_interactions);
    ("rbf explicit size grid", `Quick, test_rbf_explicit_size_grid);
    ("dataset append", `Quick, test_dataset_append);
    ("metrics perfect predictor", `Quick, test_metrics_perfect_predictor);
    ("mape zero-response policy", `Quick, test_mape_skip_policy);
    ("nan_last / strength_order", `Quick, test_nan_last_orders);
    ("average ranks with ties", `Quick, test_average_ranks_ties);
    ("spearman orders", `Quick, test_spearman_orders);
    ("top-k regret and precision", `Quick, test_top_k_metrics);
    ("rank fit recovers order", `Quick, test_rank_fit_recovers_order);
    ("rank fit skips NaN responses", `Quick, test_rank_fit_skips_nan_responses);
    ("mars fit bits are pinned", `Quick, test_mars_bits_pinned);
    QCheck_alcotest.to_alcotest prop_tree_predicts_leaf_means;
    QCheck_alcotest.to_alcotest prop_spearman_permutation_invariant;
    ("rank fit bits are pinned", `Quick, test_rank_bits_pinned);
    ("linear and rbf fit bits are pinned", `Quick, test_linear_rbf_bits_pinned);
    QCheck_alcotest.to_alcotest prop_rank_fit_bits;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |]) prop_tree_matches_reference;
    ("tree grid equals one-budget fits", `Quick, test_tree_grid_equals_single_fits);
    ("rbf fit allocates under 2M words", `Quick, test_rbf_fit_allocation);
    QCheck_alcotest.to_alcotest prop_mars_kernels_parent_bits;
    QCheck_alcotest.to_alcotest prop_rank_fit_parent_bits;
    ("forward-pass kernels refuse short arrays first", `Quick, test_forward_pass_entry_checks);
  ]
