(** Design-of-experiments tests: LHS coverage, the D-optimality criterion,
    Fedorov exchange improvement over random designs. *)

open Emc_doe

let cb = Alcotest.(check bool)

let small_space =
  {
    Doe.names = [| "a"; "b"; "c"; "d" |];
    levels =
      [| [| -1.0; 1.0 |]; [| -1.0; 0.0; 1.0 |]; [| -1.0; -0.5; 0.0; 0.5; 1.0 |]; [| -1.0; 1.0 |] |];
  }

let test_random_design_on_grid () =
  let rng = Emc_util.Rng.create 1 in
  let d = Doe.random_design rng small_space 50 in
  Alcotest.(check int) "size" 50 (Array.length d);
  Array.iter
    (fun p ->
      Array.iteri
        (fun dim v ->
          cb "value on grid" true (Array.exists (fun l -> l = v) small_space.levels.(dim)))
        p)
    d

let test_lhs_marginal_coverage () =
  let rng = Emc_util.Rng.create 2 in
  let n = 60 in
  let d = Doe.lhs rng small_space n in
  (* every level of every dimension must appear with roughly even frequency *)
  Array.iteri
    (fun dim levels ->
      Array.iter
        (fun l ->
          let count = Array.fold_left (fun acc p -> if p.(dim) = l then acc + 1 else acc) 0 d in
          let expected = n / Array.length levels in
          cb
            (Printf.sprintf "dim %d level %g count %d ~ %d" dim l count expected)
            true
            (count >= (expected / 2) && count <= expected * 2))
        levels)
    small_space.levels

let test_expand_main () =
  let row = Doe.expand_main [| 0.5; -1.0 |] in
  Alcotest.(check (array (float 1e-12))) "intercept + mains" [| 1.0; 0.5; -1.0 |] row

let test_d_optimal_beats_random () =
  let rng = Emc_util.Rng.create 3 in
  (* average over a few seeds to keep this robust *)
  let wins = ref 0 in
  for _ = 1 to 5 do
    let dopt = Doe.generate rng small_space ~n:12 in
    let rand = Doe.random_design rng small_space 12 in
    if Doe.log_det_information dopt >= Doe.log_det_information rand then incr wins
  done;
  cb (Printf.sprintf "d-optimal wins %d/5" !wins) true (!wins >= 4)

let test_d_optimal_nondegenerate () =
  let rng = Emc_util.Rng.create 4 in
  let d = Doe.generate rng small_space ~n:10 in
  Alcotest.(check int) "requested size" 10 (Array.length d);
  cb "information matrix nonsingular" true (Doe.log_det_information d > neg_infinity)

let test_d_optimal_full_space () =
  (* the real 25-parameter space of the paper *)
  let rng = Emc_util.Rng.create 5 in
  let space = Emc_core.Params.space_all in
  let d = Doe.generate ~sweeps:1 ~cand_factor:3 rng space ~n:40 in
  Alcotest.(check int) "size" 40 (Array.length d);
  cb "nonsingular" true (Doe.log_det_information d > neg_infinity);
  (* points decode into valid configurations *)
  Array.iter
    (fun p ->
      let flags, march = Emc_core.Params.configs_of_coded p in
      cb "issue width valid" true (march.Emc_sim.Config.issue_width = 2 || march.issue_width = 4);
      cb "unroll bounds" true
        (flags.Emc_opt.Flags.max_unroll_times >= 4 && flags.max_unroll_times <= 12))
    d

let test_augment_is_d_optimal_given_base () =
  (* augmenting a design must pick extra rows that are good {e jointly} with
     the existing ones: log det of the combined information matrix beats
     appending an independent random design in most seeds *)
  let wins = ref 0 in
  for seed = 1 to 5 do
    let rng = Emc_util.Rng.create (100 + seed) in
    let base = Doe.generate rng small_space ~n:8 in
    let extra = Doe.augment rng small_space ~design:base ~n_extra:6 in
    Alcotest.(check int) "n_extra rows returned" 6 (Array.length extra);
    Array.iter
      (fun p ->
        Array.iteri
          (fun dim v ->
            cb "augmented point on grid" true
              (Array.exists (fun l -> l = v) small_space.levels.(dim)))
          p)
      extra;
    let rand = Doe.random_design rng small_space 6 in
    if
      Doe.log_det_information (Array.append base extra)
      >= Doe.log_det_information (Array.append base rand)
    then incr wins
  done;
  cb (Printf.sprintf "augment wins %d/5" !wins) true (!wins >= 4)

(* every Fedorov exchange is timed once, so `emc model --metrics` shows the
   design layer's time: one generate adds one sample *)
let test_exchange_seconds_observed () =
  let samples () =
    match Emc_obs.Metrics.stats_of "doe.exchange_seconds" with
    | Some s -> s.Emc_obs.Metrics.count
    | None -> 0
  in
  let before = samples () in
  ignore (Doe.generate (Emc_util.Rng.create 5) small_space ~n:8);
  Alcotest.(check int) "one sample per generate" (before + 1) (samples ())

let prop_lhs_values_on_grid =
  QCheck.Test.make ~name:"lhs points stay on the level grid" ~count:50
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Emc_util.Rng.create seed in
      let d = Doe.lhs rng small_space n in
      Array.for_all
        (fun p ->
          Array.length p = 4
          && Array.for_all Fun.id
               (Array.mapi
                  (fun dim v -> Array.exists (fun l -> l = v) small_space.levels.(dim))
                  p))
        d)

(* Speed work on the exchange must not move a bit: the MD5 of every
   coordinate, as [%h], of four seeded designs, against digests recorded by
   an exchange that recomputed every candidate's M⁻¹x_j at every visit. A
   deliberate change to the exchange pastes the new digests over these and
   says so in the commit. *)
let design_digest rows =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list
             (Array.map
                (fun p -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") p)))
                rows))))

let test_design_bits_pinned () =
  let space = Emc_core.Params.space_all in
  let gen seed n = Doe.generate ~sweeps:2 ~cand_factor:5 (Emc_util.Rng.create seed) space ~n in
  let big = gen 7 110 in
  List.iter
    (fun (name, want, rows) -> Alcotest.(check string) name want (design_digest rows))
    [
      ("paper space, n = 110", "1ad9e2b5ea72a9d9ec8c0ed10379dbeb", big);
      ("paper space, n = 36", "99f48eb077e340f19594191f6eacec5a", gen 8 36);
      ( "27 rows augmenting n = 110",
        "6f21f81f757a65b2b11f57cc9a0fde8a",
        Doe.augment ~sweeps:2 ~cand_factor:5 (Emc_util.Rng.create 9) space ~design:big
          ~n_extra:27 );
      ( "small space, n = 12",
        "a6e5247be5e7fbf5c865245e4a74b606",
        Doe.generate ~sweeps:2 ~cand_factor:5 (Emc_util.Rng.create 10) small_space ~n:12 );
    ]

(* every accepted exchange is counted: at least one in a generate from a
   random start, and at most one per visit *)
let test_exchanges_counted () =
  let count () = Option.value (Emc_obs.Metrics.counter_value "doe.exchanges") ~default:0 in
  let before = count () in
  let sweeps = 2 and n = 8 in
  ignore (Doe.generate ~sweeps (Emc_util.Rng.create 5) small_space ~n);
  let accepted = count () - before in
  cb
    (Printf.sprintf "%d exchanges in 1..%d" accepted (sweeps * n))
    true
    (accepted >= 1 && accepted <= sweeps * n)

let test_empty_design_rejected () =
  let rng = Emc_util.Rng.create 6 in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "generate n = %d" n)
        (Invalid_argument (Printf.sprintf "Doe.generate: n must be at least 1, not %d" n))
        (fun () -> ignore (Doe.generate rng small_space ~n));
      Alcotest.check_raises
        (Printf.sprintf "augment n_extra = %d" n)
        (Invalid_argument (Printf.sprintf "Doe.augment: n_extra must be at least 1, not %d" n))
        (fun () ->
          let design = Doe.generate rng small_space ~n:6 in
          ignore (Doe.augment rng small_space ~design ~n_extra:n)))
    [ 0; -3 ]

let suite =
  [
    ("random design on grid", `Quick, test_random_design_on_grid);
    ("lhs marginal coverage", `Quick, test_lhs_marginal_coverage);
    ("expand main effects", `Quick, test_expand_main);
    ("d-optimal beats random", `Quick, test_d_optimal_beats_random);
    ("d-optimal nondegenerate", `Quick, test_d_optimal_nondegenerate);
    ("d-optimal on the paper space", `Quick, test_d_optimal_full_space);
    ("augment is jointly d-optimal", `Quick, test_augment_is_d_optimal_given_base);
    ("exchange timed once per generate", `Quick, test_exchange_seconds_observed);
    QCheck_alcotest.to_alcotest prop_lhs_values_on_grid;
    ("d-optimal design bits are pinned", `Quick, test_design_bits_pinned);
    ("exchanges counted per generate", `Quick, test_exchanges_counted);
    ("empty design rejected", `Quick, test_empty_design_rejected);
  ]
