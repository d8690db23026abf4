open Emc_util

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg ~eps a b = Alcotest.(check (float eps)) msg a b

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let child = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "parent and child differ" true (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (f >= 0.0 && f < 2.5);
    let g = Rng.range r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (g >= -5 && g <= 5)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_uniformity () =
  let r = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 10%" true (frac > 0.085 && frac < 0.115))
    counts

let test_rng_no_modulo_bias () =
  (* bounds close to max_int: a bare [mod] would make residues below
     max_int mod bound almost twice as likely. With rejection sampling the
     draw is exactly uniform, so ~half the mass sits in each half of the
     range; also exercises the rejection loop itself (~50% rejection). *)
  let r = Rng.create 29 in
  let bound = (max_int / 2) + 1 in
  let n = 2000 in
  let low = ref 0 in
  for _ = 1 to n do
    let v = Rng.int r bound in
    Alcotest.(check bool) "in range" true (v >= 0 && v < bound);
    if v < bound / 2 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lower half gets ~50%% (%.1f%%)" (100.0 *. frac))
    true
    (frac > 0.44 && frac < 0.56)

(* The first 10,000 draws of each kind at three seeds, rendered as text
   ([%h] for floats) and digested. They pin the streams themselves: how
   the generator keeps its state may change, no draw may. [int] cycles
   through bounds from 1 to [max_int], so the rejection loop runs too. *)
let rng_streams =
  [ ( 0,
      [ ("int", "fe87bbb1dd182c3bff6c9f6f37022661");
        ("float", "e353a388b01aade28c5a187bde71fe35");
        ("bool", "76ab96af1fd1c894a4a12053faa9410a");
        ("gaussian", "e0916931be4d5509f4d0d98ab887742a");
        ("split", "a960541cd82d07c74ff457f56401f309") ] );
    ( 7,
      [ ("int", "fbc29297712ca8c17f7c4cd7da5fc08c");
        ("float", "865e72a6152a8c88d76b377b58bcfe3c");
        ("bool", "e08c214d67734b990b775abafb0b1263");
        ("gaussian", "b781f37537f5f0e6ea7b7eb5c5a920a1");
        ("split", "174207c3719edc12b3d732e4c895da07") ] );
    ( 2007,
      [ ("int", "47f5600a50c457811ab609dc121c0439");
        ("float", "7e3f335aaf6bf2fdd51ba09b2dd68a27");
        ("bool", "fe7ee48104190b4d493761e1e61dc720");
        ("gaussian", "4082070e60427e4917bedfe195709328");
        ("split", "987786e7ecfd9e9142fa2ddc2c3cb043") ] ) ]

let test_rng_streams_pinned () =
  let bounds = [| 1; 2; 7; 1000; 1 lsl 40; max_int / 3 * 2; max_int |] in
  let draw kind b r =
    for i = 0 to 9999 do
      match kind with
      | "int" -> Printf.bprintf b "%d," (Rng.int r bounds.(i mod 7))
      | "float" -> Printf.bprintf b "%h," (Rng.float r 1.0)
      | "bool" -> Printf.bprintf b "%b," (Rng.bool r)
      | "gaussian" -> Printf.bprintf b "%h," (Rng.gaussian r)
      | _ -> Printf.bprintf b "%Ld," (Rng.int64 (Rng.split r))
    done
  in
  List.iter
    (fun (seed, kinds) ->
      List.iter
        (fun (kind, want) ->
          let b = Buffer.create 200_000 in
          draw kind b (Rng.create seed);
          Alcotest.(check string)
            (Printf.sprintf "seed %d, %s" seed kind)
            want
            (Digest.to_hex (Digest.string (Buffer.contents b))))
        kinds)
    rng_streams

let test_rng_int_allocates_nothing () =
  let r = Rng.create 3 in
  ignore (Rng.int r 1000);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Rng.int r 1000)
  done;
  let words = Gc.minor_words () -. before in
  (* [Gc.minor_words] boxes its own float result *)
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10,000 draws" words) true (words < 10.0)

let test_gaussian_moments () =
  let r = Rng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian r) in
  check_floatish "mean ~ 0" ~eps:0.03 0.0 (Stats.mean xs);
  check_floatish "stddev ~ 1" ~eps:0.03 1.0 (Stats.stddev xs)

let test_shuffle_permutation () =
  let r = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let r = Rng.create 19 in
  let s = Rng.sample_without_replacement r 10 30 in
  Alcotest.(check int) "10 samples" 10 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 10 (List.length uniq);
  Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s

let test_choice () =
  let r = Rng.create 23 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "choice from array" true (List.mem (Rng.choice r [| 1; 2; 3 |]) [ 1; 2; 3 ])
  done

(* ---------------- Stats ---------------- *)

let test_mean_basic () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||])

let test_variance () =
  check_float "population variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "sample variance" (5.0 /. 3.0) (Stats.sample_variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "single sample" 0.0 (Stats.variance [| 42.0 |])

let test_median_percentile () =
  check_float "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "p0 is min" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 0.0);
  check_float "p100 is max" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 100.0);
  check_float "p25 interpolates" 1.75 (Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 25.0)

let test_kahan_sum () =
  (* naive summation of 1e16 + many 1.0 loses the ones *)
  let xs = Array.make 1001 1.0 in
  xs.(0) <- 1e16;
  check_float "kahan keeps low-order bits" (1e16 +. 1000.0) (Stats.sum xs)

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_correlation () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "perfect positive" 1.0 (Stats.correlation x (Array.map (fun v -> (2.0 *. v) +. 1.0) x));
  check_float "perfect negative" (-1.0) (Stats.correlation x (Array.map (fun v -> -.v) x));
  check_float "constant gives 0" 0.0 (Stats.correlation x [| 1.0; 1.0; 1.0; 1.0 |])

let test_quantiles () =
  let q = Stats.quantiles [| 1.0; 2.0; 3.0; 4.0; 5.0 |] 4 in
  Alcotest.(check int) "k-1 cut points" 3 (Array.length q);
  check_float "median is middle cut" 3.0 q.(1)

(* ---------------- Transform ---------------- *)

let test_to_unit () =
  check_float "lo -> -1" (-1.0) (Transform.to_unit ~lo:8.0 ~hi:128.0 8.0);
  check_float "hi -> +1" 1.0 (Transform.to_unit ~lo:8.0 ~hi:128.0 128.0);
  check_float "mid -> 0" 0.0 (Transform.to_unit ~lo:0.0 ~hi:10.0 5.0)

let test_round_to_levels () =
  let levels = [| 1.0; 2.0; 4.0; 8.0 |] in
  check_float "snaps down" 2.0 (Transform.round_to_levels ~levels 2.4);
  check_float "snaps up" 4.0 (Transform.round_to_levels ~levels 3.5);
  check_float "clamps" 8.0 (Transform.round_to_levels ~levels 100.0)

let test_is_pow2 () =
  List.iter (fun v -> Alcotest.(check bool) "pow2" true (Transform.is_pow2 v)) [ 1; 2; 64; 4096 ];
  List.iter (fun v -> Alcotest.(check bool) "not pow2" false (Transform.is_pow2 v)) [ 0; -2; 3; 48 ]

(* ---------------- properties ---------------- *)

let prop_transform_roundtrip =
  QCheck.Test.make ~name:"of_unit . to_unit = id" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range 0.1 50.) (float_range 0. 1.))
    (fun (lo, width, t) ->
      let hi = lo +. width in
      let x = lo +. (t *. width) in
      let u = Emc_util.Transform.to_unit ~lo ~hi x in
      Float.abs (Emc_util.Transform.of_unit ~lo ~hi u -. x) < 1e-6 *. (1.0 +. Float.abs x))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 2 30) (float_range (-1000.) 1000.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Emc_util.Stats.percentile xs lo <= Emc_util.Stats.percentile xs hi +. 1e-9)

(* min/max on an empty array used to fold from ±infinity and silently
   report that as data; now it must fail loudly, like percentile. *)
let test_min_max_empty () =
  Alcotest.check_raises "min []" (Invalid_argument "Stats.min: empty array") (fun () ->
      ignore (Emc_util.Stats.min [||]));
  Alcotest.check_raises "max []" (Invalid_argument "Stats.max: empty array") (fun () ->
      ignore (Emc_util.Stats.max [||]));
  Alcotest.(check (float 0.0)) "singleton min" 3.5 (Emc_util.Stats.min [| 3.5 |]);
  Alcotest.(check (float 0.0)) "singleton max" 3.5 (Emc_util.Stats.max [| 3.5 |])

(* percentile sorts NaNs first (Float.compare), so they occupy the lowest
   ranks: low percentiles of NaN-contaminated data are NaN, high
   percentiles ignore the NaNs. Pin that documented behavior down. *)
let test_percentile_nan_sorts_first () =
  let xs = [| 5.0; Float.nan; 1.0; 3.0 |] in
  Alcotest.(check bool) "p0 is NaN" true (Float.is_nan (Emc_util.Stats.percentile xs 0.0));
  Alcotest.(check (float 1e-9)) "p100 ignores NaN" 5.0 (Emc_util.Stats.percentile xs 100.0)

let prop_mean_bounds =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Array.of_list xs in
      let m = Emc_util.Stats.mean a in
      Emc_util.Stats.min a -. 1e-6 <= m && m <= Emc_util.Stats.max a +. 1e-6)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng different seeds", `Quick, test_rng_different_seeds);
    ("rng copy", `Quick, test_rng_copy);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng invalid bound", `Quick, test_rng_int_invalid);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng no modulo bias", `Quick, test_rng_no_modulo_bias);
    ("rng streams pinned", `Quick, test_rng_streams_pinned);
    ("Rng.int allocates 0 minor words", `Quick, test_rng_int_allocates_nothing);
    ("gaussian moments", `Quick, test_gaussian_moments);
    ("shuffle is permutation", `Quick, test_shuffle_permutation);
    ("sample without replacement", `Quick, test_sample_without_replacement);
    ("choice", `Quick, test_choice);
    ("stats mean", `Quick, test_mean_basic);
    ("stats variance", `Quick, test_variance);
    ("stats median/percentile", `Quick, test_median_percentile);
    ("stats kahan sum", `Quick, test_kahan_sum);
    ("stats geomean", `Quick, test_geomean);
    ("stats correlation", `Quick, test_correlation);
    ("stats quantiles", `Quick, test_quantiles);
    ("stats min/max empty raise", `Quick, test_min_max_empty);
    ("stats percentile NaNs sort first", `Quick, test_percentile_nan_sorts_first);
    ("transform to_unit", `Quick, test_to_unit);
    ("transform round_to_levels", `Quick, test_round_to_levels);
    ("transform is_pow2", `Quick, test_is_pow2);
    QCheck_alcotest.to_alcotest prop_transform_roundtrip;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_mean_bounds;
  ]
