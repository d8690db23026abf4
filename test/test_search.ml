(** Genetic algorithm / search tests on functions with known optima. *)

open Emc_search

let cb = Alcotest.(check bool)

let grid5 k = { Ga.levels = Array.init k (fun _ -> [| -1.0; -0.5; 0.0; 0.5; 1.0 |]) }

(* separable convex: optimum at the grid point closest to the continuous
   minimizer (0.5, 0.5, ...) *)
let separable x = Array.fold_left (fun acc v -> acc +. ((v -. 0.5) ** 2.0)) 0.0 x

let test_ga_finds_separable_optimum () =
  let rng = Emc_util.Rng.create 1 in
  let best, fit = Ga.optimize rng (grid5 6) ~fitness:separable in
  Alcotest.(check (float 1e-9)) "optimal value" 0.0 fit;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "gene at 0.5" 0.5 v) best

let test_ga_deterministic_with_seed () =
  let run () =
    let rng = Emc_util.Rng.create 7 in
    Ga.optimize rng (grid5 8) ~fitness:(fun x -> separable x +. (0.3 *. x.(0) *. x.(1)))
  in
  let b1, f1 = run () and b2, f2 = run () in
  Alcotest.(check (float 0.0)) "same fitness" f1 f2;
  Alcotest.(check (array (float 0.0))) "same genome" b1 b2

let test_ga_handles_interactions () =
  (* XOR-like coupling: good settings depend jointly on two genes *)
  let f x = (x.(0) *. x.(1)) +. (0.1 *. separable x) in
  let rng = Emc_util.Rng.create 3 in
  let _, fit = Ga.optimize rng (grid5 4) ~fitness:f in
  (* optimum: x0 = 1, x1 = -1 (or vice versa), x2 = x3 = 0.5:
     -1 + 0.1 * (0.25 + 2.25) = -0.75 *)
  Alcotest.(check (float 1e-9)) "found coupled optimum" (-0.75) fit

let test_ga_nan_fitness_is_worst () =
  (* a model predicting NaN in some region must not hand that region the
     elite slots: the returned best is a real number outside the NaN zone *)
  let f x = if x.(0) > 0.0 then Float.nan else separable x in
  let rng = Emc_util.Rng.create 21 in
  let best, fit = Ga.optimize rng (grid5 4) ~fitness:f in
  cb "best fitness is a number" true (not (Float.is_nan fit));
  cb "best genome avoids the NaN region" true (best.(0) <= 0.0);
  (* all-NaN landscape still terminates and reports NaN honestly *)
  let rng = Emc_util.Rng.create 22 in
  let _, fit = Ga.optimize rng (grid5 3) ~fitness:(fun _ -> Float.nan) in
  cb "all-NaN landscape returns NaN" true (Float.is_nan fit)

let evaluations () = Option.value ~default:0 (Emc_obs.Metrics.counter_value "ga.evaluations")

let test_baseline_budget_accounting () =
  (* random_search and hill_climb must count their fitness calls into
     ga.evaluations like the GA does, or ablation budgets are meaningless *)
  let before = evaluations () in
  let _ = Ga.random_search (Emc_util.Rng.create 8) (grid5 4) ~fitness:separable ~evals:50 in
  Alcotest.(check int) "random_search counts every call" (before + 50) (evaluations ());
  let before = evaluations () in
  let _ = Ga.hill_climb (Emc_util.Rng.create 9) (grid5 4) ~fitness:separable ~restarts:1 in
  cb "hill_climb counts its calls" true (evaluations () > before)

let test_random_search_budget () =
  let rng = Emc_util.Rng.create 4 in
  let _, fit = Ga.random_search rng (grid5 4) ~fitness:separable ~evals:4000 in
  cb "random search gets close" true (fit < 0.6)

let test_hill_climb_unimodal_exact () =
  let rng = Emc_util.Rng.create 5 in
  let _, fit = Ga.hill_climb rng (grid5 6) ~fitness:separable ~restarts:1 in
  Alcotest.(check (float 1e-9)) "exact on unimodal" 0.0 fit

let test_random_search_nan_first_draw () =
  (* a NaN first draw ranks below every finite one, as in the GA: it must
     not be kept for the whole budget *)
  let calls = ref 0 in
  let f x =
    incr calls;
    if !calls = 1 then Float.nan else separable x
  in
  let _, fit = Ga.random_search (Emc_util.Rng.create 31) (grid5 4) ~fitness:f ~evals:200 in
  cb "200 evaluations made" true (!calls = 200);
  cb "best fitness is a number" true (not (Float.is_nan fit))

let test_hill_climb_all_nan_starts () =
  (* with NaN everywhere the climb returns a genome it evaluated, with the
     NaN that evaluation gave, not an unevaluated draw at infinity *)
  let evaluated = ref [] in
  let f x =
    evaluated := Array.copy x :: !evaluated;
    Float.nan
  in
  let best, fit = Ga.hill_climb (Emc_util.Rng.create 32) (grid5 3) ~fitness:f ~restarts:2 in
  cb "fitness is NaN" true (Float.is_nan fit);
  cb "genome was evaluated" true (List.mem best !evaluated)

let test_ga_beats_small_random_budget () =
  (* on a rugged landscape the GA should do at least as well as an
     equivalent-budget random search most of the time *)
  let rugged x =
    Array.fold_left (fun acc v -> acc +. (v *. v) +. (0.5 *. sin (7.0 *. v))) 0.0 x
  in
  let wins = ref 0 in
  for seed = 1 to 5 do
    let r1 = Emc_util.Rng.create seed and r2 = Emc_util.Rng.create (seed + 100) in
    let _, ga = Ga.optimize r1 (grid5 10) ~fitness:rugged in
    let _, rs = Ga.random_search r2 (grid5 10) ~fitness:rugged ~evals:600 in
    if ga <= rs +. 1e-9 then incr wins
  done;
  cb (Printf.sprintf "ga wins %d/5" !wins) true (!wins >= 3)

let test_searcher_freezes_march () =
  (* the model-based search must only vary compiler genes: a model that
     depends solely on microarch parameters yields identical fitness
     everywhere, and the prescribed flags must still be valid *)
  let model =
    {
      Emc_regress.Model.technique = "stub";
      predict = (fun x -> 1000.0 +. (100.0 *. x.(Emc_core.Params.n_compiler)));
      n_params = 1;
      terms = [];
      repr = None;
    }
  in
  let rng = Emc_util.Rng.create 6 in
  let r =
    Emc_core.Searcher.search ~rng ~model ~march:Emc_sim.Config.typical ()
  in
  Alcotest.(check int) "raw has compiler dims" Emc_core.Params.n_compiler
    (Array.length r.Emc_core.Searcher.raw);
  cb "heuristics in range" true
    (r.Emc_core.Searcher.flags.Emc_opt.Flags.max_unroll_times >= 4
    && r.Emc_core.Searcher.flags.Emc_opt.Flags.max_unroll_times <= 12)

let test_searcher_guards_nonphysical_predictions () =
  (* a model that returns negative cycles in some corner must not have that
     corner prescribed *)
  let model =
    {
      Emc_regress.Model.technique = "stub";
      predict =
        (fun x -> if x.(0) > 0.0 then -1e9 (* nonphysical *) else 500.0 +. x.(1));
      n_params = 1;
      terms = [];
      repr = None;
    }
  in
  let rng = Emc_util.Rng.create 7 in
  let r = Emc_core.Searcher.search ~rng ~model ~march:Emc_sim.Config.typical () in
  cb "prescribed point is physical" true (r.Emc_core.Searcher.predicted_cycles > 0.0)

(* ---------------- GA degenerate-fitness landscapes ---------------- *)

let generations () = Option.value ~default:0 (Emc_obs.Metrics.counter_value "ga.generations")

let test_ga_all_nan_terminates_by_stagnation () =
  (* a fully-NaN landscape never improves: the stagnation exit must fire
     long before the generation budget, not grind through all of it *)
  let before = generations () in
  let rng = Emc_util.Rng.create 23 in
  let params = { Ga.default_params with generations = 500; stagnation_limit = 10 } in
  let _, fit = Ga.optimize ~params rng (grid5 3) ~fitness:(fun _ -> Float.nan) in
  cb "returns NaN honestly" true (Float.is_nan fit);
  let ran = generations () - before in
  cb (Printf.sprintf "stopped after %d generations" ran) true
    (ran <= params.Ga.stagnation_limit + 1)

let test_ga_mixed_nan_crowns_finite () =
  (* one single finite cell in an otherwise-NaN landscape: the GA must
     never crown a NaN genome when any finite fitness was seen *)
  let f x = if x.(0) = 1.0 && x.(1) = -1.0 then 7.0 else Float.nan in
  let rng = Emc_util.Rng.create 24 in
  let best, fit = Ga.optimize rng (grid5 2) ~fitness:f in
  Alcotest.(check (float 0.0)) "finite optimum found" 7.0 fit;
  Alcotest.(check (float 0.0)) "genome of the finite cell" 1.0 best.(0)

(* ---------------- Pareto: non-dominated sort + crowding ---------------- *)

let test_pareto_dominates () =
  cb "strictly better" true (Pareto.dominates [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  cb "better on one, equal on other" true (Pareto.dominates [| 1.0; 2.0 |] [| 2.0; 2.0 |]);
  cb "trade-off does not dominate" false (Pareto.dominates [| 1.0; 3.0 |] [| 2.0; 2.0 |]);
  cb "equal does not dominate" false (Pareto.dominates [| 1.0; 1.0 |] [| 1.0; 1.0 |]);
  (* NaN is worse than anything: a NaN objective can never help dominate *)
  cb "nan loses" true (Pareto.dominates [| 1.0; 1.0 |] [| 1.0; Float.nan |]);
  cb "nan cannot dominate" false (Pareto.dominates [| 1.0; Float.nan |] [| 1.0; 1.0 |])

let test_pareto_non_dominated_sort () =
  (* hand-checkable: points 0 and 2 form the first front; 1 is dominated
     by both; 3 is dominated by everything *)
  let objs = [| [| 1.0; 4.0 |]; [| 2.0; 5.0 |]; [| 3.0; 1.0 |]; [| 4.0; 6.0 |] |] in
  (match Pareto.non_dominated_sort objs with
  | [ f0; f1; f2 ] ->
      Alcotest.(check (array int)) "front 0" [| 0; 2 |] f0;
      Alcotest.(check (array int)) "front 1" [| 1 |] f1;
      Alcotest.(check (array int)) "front 2" [| 3 |] f2
  | fronts -> Alcotest.failf "expected 3 fronts, got %d" (List.length fronts));
  cb "first front is a front" true (Pareto.is_front [| [| 1.0; 4.0 |]; [| 3.0; 1.0 |] |]);
  cb "dominated set is not a front" false (Pareto.is_front objs);
  Alcotest.(check int) "empty input has no fronts" 0
    (List.length (Pareto.non_dominated_sort [||]))

(* The non-dominated sort on lists, with dominance decided through
   [Ga.fitness_order]: kept here only as the reference that the flat-array
   sort must equal. *)
let reference_sort (objs : float array array) : int array list =
  let dominates a b =
    let le = ref true and lt = ref false in
    for i = 0 to Array.length a - 1 do
      let c = Ga.fitness_order a.(i) b.(i) in
      if c > 0 then le := false;
      if c < 0 then lt := true
    done;
    !le && !lt
  in
  let n = Array.length objs in
  let dominated = Array.make n [] and dom_count = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && dominates objs.(i) objs.(j) then begin
        dominated.(i) <- j :: dominated.(i);
        dom_count.(j) <- dom_count.(j) + 1
      end
    done
  done;
  let rec fronts current acc =
    if current = [] then List.rev acc
    else begin
      let next = ref [] in
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              dom_count.(j) <- dom_count.(j) - 1;
              if dom_count.(j) = 0 then next := j :: !next)
            (List.rev dominated.(i)))
        current;
      fronts (List.sort compare !next) (Array.of_list current :: acc)
    end
  in
  fronts (List.filter (fun i -> dom_count.(i) = 0) (List.init n Fun.id)) []

(* 0-120 points of 1-3 objectives drawn from few levels (ties on some
   objectives and whole duplicates), NaN and infinities among them. *)
let prop_sort_matches_reference =
  let open QCheck2.Gen in
  let value =
    frequency
      [ (6, map float_of_int (int_range 0 5)); (2, float_range (-1.0) 1.0);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]) ]
  in
  let gen =
    let* m = int_range 1 3 in
    array_size (int_range 0 120) (array_repeat m value)
  in
  QCheck2.Test.make ~name:"non-dominated sort equals the list version" ~count:300
    ~print:(fun objs ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun o -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") o)))
              objs)))
    gen
    (fun objs -> Pareto.non_dominated_sort objs = reference_sort objs)

let test_pareto_crowding_distance () =
  let objs = [| [| 0.0; 3.0 |]; [| 1.0; 2.0 |]; [| 3.0; 0.0 |] |] in
  let cd = Pareto.crowding_distance objs [| 0; 1; 2 |] in
  cb "boundary points are infinite" true (cd.(0) = infinity && cd.(2) = infinity);
  (* interior: (3-0)/3 + (3-0)/3 = 2 *)
  Alcotest.(check (float 1e-9)) "interior normalized gaps" 2.0 cd.(1)

let test_pareto_optimize_biobjective () =
  (* minimize (sum (x - 0.5)^2, sum (x + 0.5)^2): the true front is the
     segment between the two single-objective optima *)
  let f1 x = Array.fold_left (fun a v -> a +. ((v -. 0.5) ** 2.0)) 0.0 x in
  let f2 x = Array.fold_left (fun a v -> a +. ((v +. 0.5) ** 2.0)) 0.0 x in
  let fitness x = [| f1 x; f2 x |] in
  let run () = Pareto.optimize (Emc_util.Rng.create 11) (grid5 4) ~fitness in
  let front = run () in
  cb "non-empty front" true (Array.length front > 1);
  cb "returned front is mutually non-dominated" true
    (Pareto.is_front (Array.map (fun p -> p.Pareto.objectives) front));
  (* both single-objective optima are on the front *)
  let has pred = Array.exists (fun p -> pred p.Pareto.objectives) front in
  cb "f1 optimum reached" true (has (fun o -> o.(0) < 1e-9));
  cb "f2 optimum reached" true (has (fun o -> o.(1) < 1e-9));
  (* deterministic for a given seed, including order *)
  let front2 = run () in
  Alcotest.(check int) "same front size" (Array.length front) (Array.length front2);
  Array.iteri
    (fun i p ->
      Alcotest.(check (array (float 0.0))) "same genomes in the same order" p.Pareto.genome
        front2.(i).Pareto.genome)
    front

let test_pareto_optimize_avoids_nan_region () =
  (* NaN objectives in half the space: no NaN point may survive to the
     returned front when finite alternatives exist *)
  let fitness x =
    if x.(0) > 0.0 then [| Float.nan; Float.nan |]
    else [| separable x; Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x |]
  in
  let front = Pareto.optimize (Emc_util.Rng.create 12) (grid5 3) ~fitness in
  cb "non-empty" true (Array.length front > 0);
  Array.iter
    (fun p ->
      cb "no NaN objectives on the front" true
        (Array.for_all (fun v -> not (Float.is_nan v)) p.Pareto.objectives))
    front

let test_pareto_counters () =
  let evals () =
    Option.value ~default:0 (Emc_obs.Metrics.counter_value "pareto.evaluations")
  in
  let before = evals () in
  let params = { Ga.default_params with pop_size = 10; generations = 5 } in
  let _ =
    Pareto.optimize ~params (Emc_util.Rng.create 13) (grid5 2)
      ~fitness:(fun x -> [| x.(0); x.(1) |])
  in
  (* initial population + one offspring population per generation *)
  Alcotest.(check int) "evaluation accounting" (10 * 6) (evals () - before)

(* each search is timed once per call, so `emc search --metrics` and
   `emc pareto --metrics` show the search layer's time *)
let test_optimize_seconds_observed () =
  let samples name =
    match Emc_obs.Metrics.stats_of name with Some s -> s.Emc_obs.Metrics.count | None -> 0
  in
  let params = { Ga.default_params with pop_size = 10; generations = 3 } in
  let ga = samples "ga.optimize_seconds" and pareto = samples "pareto.optimize_seconds" in
  ignore (Ga.optimize ~params (Emc_util.Rng.create 14) (grid5 2) ~fitness:separable);
  Alcotest.(check int) "one GA sample" (ga + 1) (samples "ga.optimize_seconds");
  ignore
    (Pareto.optimize ~params (Emc_util.Rng.create 15) (grid5 2)
       ~fitness:(fun x -> [| x.(0); x.(1) |]));
  Alcotest.(check int) "one NSGA-II sample" (pareto + 1) (samples "pareto.optimize_seconds");
  Alcotest.(check int) "the GA's count is unchanged" (ga + 1) (samples "ga.optimize_seconds")

(* A population smaller than the elite keeps all of itself: at pop 1 the
   GA copies its one genome forward, and the best it returns is that
   genome with its own fitness. A population of none is refused. *)
let test_ga_tiny_populations () =
  List.iter
    (fun pop_size ->
      let params = { Ga.default_params with pop_size; generations = 5 } in
      let best, fit = Ga.optimize ~params (Emc_util.Rng.create 3) (grid5 4) ~fitness:separable in
      Alcotest.(check int) (Printf.sprintf "pop %d: genome length" pop_size) 4 (Array.length best);
      Alcotest.(check (float 0.0)) (Printf.sprintf "pop %d: its fitness" pop_size) (separable best) fit)
    [ 1; 2; 3 ];
  Alcotest.check_raises "pop 0" (Invalid_argument "Ga.optimize: pop_size must be at least 1, not 0")
    (fun () ->
      ignore
        (Ga.optimize ~params:{ Ga.default_params with pop_size = 0 } (Emc_util.Rng.create 3) (grid5 4)
           ~fitness:separable))

(* A verbatim copy of the checked [crowding_distance]: the unchecked one
   must give its bits, and reordering its sum over the objectives, or its
   order of equal or NaN values, must fail the property below. *)
module Parent = struct
  let crowding_distance (objs : float array array) (front : int array) : float array =
    let k = Array.length front in
    let dist = Array.make k 0.0 in
    if k > 0 then begin
      let m = Array.length objs.(front.(0)) in
      for o = 0 to m - 1 do
        let order = Array.init k Fun.id in
        Array.sort
          (fun a b ->
            let c = Ga.fitness_order objs.(front.(a)).(o) objs.(front.(b)).(o) in
            if c <> 0 then c else compare front.(a) front.(b))
          order;
        dist.(order.(0)) <- infinity;
        dist.(order.(k - 1)) <- infinity;
        let lo = objs.(front.(order.(0))).(o) and hi = objs.(front.(order.(k - 1))).(o) in
        let range = hi -. lo in
        if Float.is_finite range && range > 0.0 then
          for p = 1 to k - 2 do
            let prev = objs.(front.(order.(p - 1))).(o)
            and next = objs.(front.(order.(p + 1))).(o) in
            if Float.is_finite prev && Float.is_finite next then
              dist.(order.(p)) <- dist.(order.(p)) +. ((next -. prev) /. range)
          done
      done
    end;
    dist
end

(* Objectives from a small set (so ties break by front index) and doubles
   over forty binary orders of magnitude, on odd seeds with NaN and
   infinities too; fronts are random subsets in random order, a single
   member included. Up to five objectives, so an interior point's
   distance can sum three gaps or more, whose order shows in its bits. *)
let prop_crowding_parent_bits =
  QCheck.Test.make ~name:"crowding_distance keeps its checked parent's bits" ~count:400
    QCheck.(make Gen.(quad (int_range 1 30) (int_range 1 5) (int_range 1 30) (int_range 0 10_000)))
    (fun (n, m, len, seed) ->
      let rng = Emc_util.Rng.create seed in
      let value () =
        match Emc_util.Rng.int rng (if seed mod 2 = 1 then 8 else 6) with
        | 6 -> nan
        | 7 -> infinity
        | 0 | 1 -> float_of_int (Emc_util.Rng.int rng 3)
        | _ -> Helpers.wide rng
      in
      let objs = Array.init n (fun _ -> Array.init m (fun _ -> value ())) in
      let perm = Array.init n Fun.id in
      Emc_util.Rng.shuffle rng perm;
      let front = Array.sub perm 0 (1 + (len mod n)) in
      Helpers.all_bits (Pareto.crowding_distance objs front) (Parent.crowding_distance objs front))

(* The entry check: a member outside the points, or one short of the
   first member's objectives, raises [Invalid_argument] before a read. *)
let test_crowding_entry_check () =
  let objs = [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |]; [| 3.0 |] |] in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "a member past the points" (fun () -> Pareto.crowding_distance objs [| 0; 3 |]);
  raises "a negative member" (fun () -> Pareto.crowding_distance objs [| 0; -1 |]);
  raises "a member short of objectives" (fun () -> Pareto.crowding_distance objs [| 0; 2 |])

let suite =
  [
    ("ga separable optimum", `Quick, test_ga_finds_separable_optimum);
    ("ga deterministic", `Quick, test_ga_deterministic_with_seed);
    ("ga coupled genes", `Quick, test_ga_handles_interactions);
    ("ga nan fitness is worst", `Quick, test_ga_nan_fitness_is_worst);
    ("baseline budget accounting", `Quick, test_baseline_budget_accounting);
    ("random search budget", `Quick, test_random_search_budget);
    ("hill climb unimodal", `Quick, test_hill_climb_unimodal_exact);
    ("random search NaN first draw", `Quick, test_random_search_nan_first_draw);
    ("hill climb all-NaN starts", `Quick, test_hill_climb_all_nan_starts);
    ("ga vs random", `Quick, test_ga_beats_small_random_budget);
    ("searcher freezes march", `Quick, test_searcher_freezes_march);
    ("searcher guards non-physical", `Quick, test_searcher_guards_nonphysical_predictions);
    ("ga all-NaN stagnates out", `Quick, test_ga_all_nan_terminates_by_stagnation);
    ("ga crowns finite over NaN", `Quick, test_ga_mixed_nan_crowns_finite);
    ("pareto dominance", `Quick, test_pareto_dominates);
    ("pareto non-dominated sort", `Quick, test_pareto_non_dominated_sort);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |]) prop_sort_matches_reference;
    ("pareto crowding distance", `Quick, test_pareto_crowding_distance);
    ("pareto biobjective front", `Quick, test_pareto_optimize_biobjective);
    ("pareto avoids NaN region", `Quick, test_pareto_optimize_avoids_nan_region);
    ("pareto evaluation accounting", `Quick, test_pareto_counters);
    ("searches timed once per call", `Quick, test_optimize_seconds_observed);
    ("ga at populations of 1 to 3", `Quick, test_ga_tiny_populations);
    QCheck_alcotest.to_alcotest prop_crowding_parent_bits;
    ("crowding refuses a stray member first", `Quick, test_crowding_entry_check);
  ]
