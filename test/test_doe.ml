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

(* ---- the exchange kernels as they were before they read unchecked ---- *)

(* A verbatim copy of the checked [project], and of the per-visit scan of
   [d_optimal]'s loop wrapped as a function: [Doe.project] and
   [Doe.best_exchange] must give their bits, and reordering any sum in
   either must fail a property below. *)
module Parent = struct
  let project ~p ~minv ~cands ~mv ~d =
    let m = Array.length cands in
    let j = ref 0 in
    while !j < m do
      let j0 = !j in
      let j1 = if j0 + 1 < m then j0 + 1 else j0 in
      let x0 = cands.(j0) and x1 = cands.(j1) and p0 = j0 * p and p1 = j1 * p in
      let r = ref 0 in
      while !r + 3 < p do
        let r0 = !r in
        let row = r0 * p in
        let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
        let b0 = ref 0.0 and b1 = ref 0.0 and b2 = ref 0.0 and b3 = ref 0.0 in
        for c = 0 to p - 1 do
          let u = x0.(c) and v = x1.(c) in
          let m0 = minv.(row + c)
          and m1 = minv.(row + p + c)
          and m2 = minv.(row + (2 * p) + c)
          and m3 = minv.(row + (3 * p) + c) in
          a0 := !a0 +. (m0 *. u);
          b0 := !b0 +. (m0 *. v);
          a1 := !a1 +. (m1 *. u);
          b1 := !b1 +. (m1 *. v);
          a2 := !a2 +. (m2 *. u);
          b2 := !b2 +. (m2 *. v);
          a3 := !a3 +. (m3 *. u);
          b3 := !b3 +. (m3 *. v)
        done;
        mv.(p0 + r0) <- !a0;
        mv.(p0 + r0 + 1) <- !a1;
        mv.(p0 + r0 + 2) <- !a2;
        mv.(p0 + r0 + 3) <- !a3;
        mv.(p1 + r0) <- !b0;
        mv.(p1 + r0 + 1) <- !b1;
        mv.(p1 + r0 + 2) <- !b2;
        mv.(p1 + r0 + 3) <- !b3;
        r := r0 + 4
      done;
      for r = !r to p - 1 do
        let a = ref 0.0 and b = ref 0.0 in
        for c = 0 to p - 1 do
          let mrc = minv.((r * p) + c) in
          a := !a +. (mrc *. x0.(c));
          b := !b +. (mrc *. x1.(c))
        done;
        mv.(p0 + r) <- !a;
        mv.(p1 + r) <- !b
      done;
      let e0 = ref 0.0 and e1 = ref 0.0 in
      for c = 0 to p - 1 do
        e0 := !e0 +. (x0.(c) *. mv.(p0 + c));
        e1 := !e1 +. (x1.(c) *. mv.(p1 + c))
      done;
      d.(j0) <- !e0;
      d.(j1) <- !e1;
      j := j0 + 2
    done

  let scan ~p ~m ~mv ~d xi di =
    let best_delta = ref 1e-9 and best_j = ref (-1) in
    for j = 0 to m - 1 do
      let jp = j * p in
      let g = ref 0.0 in
      for r = 0 to p - 1 do
        g := !g +. (xi.(r) *. mv.(jp + r))
      done;
      let g = !g and dj = d.(j) in
      (* Fedorov's delta for exchanging xi with xj *)
      let delta = dj -. di -. ((di *. dj) -. (g *. g)) in
      if delta > !best_delta then begin
        best_delta := delta;
        best_j := j
      end
    done;
    !best_j
end

let wide = Helpers.wide

(* p on every residue mod 4, from 1; m odd and even, from a single
   candidate *)
let shape = QCheck.Gen.(triple (int_range 1 30) (int_range 1 41) (int_range 0 10_000))

let prop_project_parent_bits =
  QCheck.Test.make ~name:"project keeps its checked parent's bits" ~count:300 (QCheck.make shape)
    (fun (p, m, seed) ->
      let rng = Emc_util.Rng.create seed in
      let minv = Array.init (p * p) (fun _ -> wide rng) in
      let cands = Array.init m (fun _ -> Array.init p (fun _ -> wide rng)) in
      let mv = Array.make (m * p) nan and d = Array.make m nan in
      let mv' = Array.make (m * p) nan and d' = Array.make m nan in
      Doe.project ~p ~minv ~cands ~mv ~d;
      Parent.project ~p ~minv ~cands ~mv:mv' ~d:d';
      Helpers.all_bits mv mv' && Helpers.all_bits d d')

(* Candidates repeated at random places tie with their originals, so the
   first of equal gains must win as before; the deltas of wide doubles
   order the candidates differently when any sum is reordered. *)
let prop_best_exchange_parent =
  QCheck.Test.make ~name:"best_exchange picks its checked parent's candidate" ~count:500
    (QCheck.make shape)
    (fun (p, m, seed) ->
      let rng = Emc_util.Rng.create seed in
      let rows = Array.init m (fun _ -> Array.init p (fun _ -> wide rng)) in
      let rows = Array.map (fun r -> if Emc_util.Rng.int rng 4 = 0 then rows.(Emc_util.Rng.int rng m) else r) rows in
      let mv = Array.concat (Array.to_list rows) in
      let d = Array.init m (fun _ -> Float.abs (wide rng)) in
      let xi = Array.init p (fun _ -> wide rng) in
      let di = Float.abs (wide rng) *. 1e-3 in
      Doe.best_exchange ~p ~mv ~d xi di = Parent.scan ~p ~m ~mv ~d xi di)

(* The entry checks: an array too short for its indices raises
   [Invalid_argument] before either kernel reads or writes, so [mv] and
   [d] keep their contents. *)
let test_exchange_entry_checks () =
  let p = 3 and m = 2 in
  let minv = Array.make (p * p) 1.0 and cands = Array.make m [| 1.0; 0.5; -1.0 |] in
  let mv = Array.make (m * p) 7.0 and d = Array.make m 7.0 in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "project, a short inverse" (fun () -> Doe.project ~p ~minv:(Array.make 8 1.0) ~cands ~mv ~d);
  raises "project, a short candidate" (fun () ->
      Doe.project ~p ~minv ~cands:[| cands.(0); [| 1.0; 0.5 |] |] ~mv ~d);
  raises "project, a short projection" (fun () -> Doe.project ~p ~minv ~cands ~mv:(Array.make 5 7.0) ~d);
  raises "project, a short d" (fun () -> Doe.project ~p ~minv ~cands ~mv ~d:[| 7.0 |]);
  cb "projections untouched" true (Array.for_all (( = ) 7.0) mv && Array.for_all (( = ) 7.0) d);
  raises "best_exchange, a short point" (fun () ->
      ignore (Doe.best_exchange ~p ~mv ~d [| 1.0; 1.0 |] 0.5));
  raises "best_exchange, short projections" (fun () ->
      ignore (Doe.best_exchange ~p ~mv:(Array.make 5 1.0) ~d [| 1.0; 1.0; 1.0 |] 0.5))

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
    QCheck_alcotest.to_alcotest prop_project_parent_bits;
    QCheck_alcotest.to_alcotest prop_best_exchange_parent;
    ("exchange kernels refuse short arrays first", `Quick, test_exchange_entry_checks);
  ]
