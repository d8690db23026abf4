open Emc_util

(** NSGA-II-style multi-objective search over coded design-point grids
    (Deb et al. 2002): fast non-dominated sort + crowding distance, with
    the same genome representation, tournament/crossover/mutation operators
    and determinism contract as {!Ga}. All objectives are {e minimized};
    a NaN objective value is worse than any number (the {!Ga} convention),
    so broken model predictions can neither dominate nor crowd out real
    points. *)

type point = { genome : float array; objectives : float array }

let m_generations = Emc_obs.Metrics.counter "pareto.generations"
let m_evaluations = Emc_obs.Metrics.counter "pareto.evaluations"

let dominates a b =
  let le = ref true and lt = ref false in
  Array.iteri
    (fun i ai ->
      let c = Ga.fitness_order ai b.(i) in
      if c > 0 then le := false;
      if c < 0 then lt := true)
    a;
  !le && !lt

let is_front objs =
  let n = Array.length objs in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && dominates objs.(i) objs.(j) then ok := false
    done
  done;
  !ok

(* Fast non-dominated sort: fronts of indices, best first; indices inside a
   front stay in ascending order, so the output is deterministic. *)
let non_dominated_sort (objs : float array array) : int array list =
  let n = Array.length objs in
  let dominated = Array.make n [] (* j dominated by i, reversed *) in
  let dom_count = Array.make n 0 in
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
  let first = List.filter (fun i -> dom_count.(i) = 0) (List.init n Fun.id) in
  fronts first []

(* Crowding distance of each member of [front] (parallel to [front]):
   boundary points get infinity, interior points the sum of normalized
   gaps to their neighbours along each objective. Objectives with a
   degenerate (zero or non-finite) range contribute nothing. *)
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

(* The final front as returned to callers: deduplicated by genome and
   sorted by objectives (then genome) so the result is a deterministic
   function of the search, independent of population order. *)
let finalize pop objs front =
  let arr_order a b =
    let n = Stdlib.min (Array.length a) (Array.length b) in
    let rec go i =
      if i = n then compare (Array.length a) (Array.length b)
      else
        let c = Ga.fitness_order a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let pts = Array.to_list (Array.map (fun i -> { genome = pop.(i); objectives = objs.(i) }) front) in
  let pts =
    List.sort_uniq
      (fun a b ->
        let c = arr_order a.objectives b.objectives in
        if c <> 0 then c else arr_order a.genome b.genome)
      pts
  in
  let uniq =
    List.filteri
      (fun i p ->
        i = 0 || arr_order p.genome (List.nth pts (i - 1)).genome <> 0
        || arr_order p.objectives (List.nth pts (i - 1)).objectives <> 0)
      pts
  in
  Array.of_list (List.map (fun p -> { p with genome = Array.copy p.genome }) uniq)

let optimize ?(params = Ga.default_params) rng (p : Ga.problem) ~fitness : point array =
  Emc_obs.Trace.with_span ~cat:"search"
    ~args:(fun () ->
      [ ("pop_size", Emc_obs.Json.Int params.Ga.pop_size);
        ("generations", Emc_obs.Json.Int params.Ga.generations) ])
    "pareto.optimize"
  @@ fun () ->
  let k = Array.length p.Ga.levels in
  let pop_size = params.Ga.pop_size in
  let pop = ref (Array.init pop_size (fun _ -> Ga.random_genome rng p)) in
  let objs = ref (Array.map fitness !pop) in
  Emc_obs.Metrics.add m_evaluations pop_size;
  (* per-individual rank and crowding over the current population *)
  let rank_and_crowd objs =
    let n = Array.length objs in
    let rank = Array.make n 0 and crowd = Array.make n 0.0 in
    let fronts = non_dominated_sort objs in
    List.iteri
      (fun fi front ->
        let cd = crowding_distance objs front in
        Array.iteri
          (fun pos i ->
            rank.(i) <- fi;
            crowd.(i) <- cd.(pos))
          front)
      fronts;
    (fronts, rank, crowd)
  in
  for _ = 1 to params.Ga.generations do
    let _, rank, crowd = rank_and_crowd !objs in
    (* crowded-comparison tournament: lower rank wins, ties go to the less
       crowded (larger distance) individual, further ties to the incumbent *)
    let better c w =
      rank.(c) < rank.(w) || (rank.(c) = rank.(w) && crowd.(c) > crowd.(w))
    in
    let tournament () =
      let w = ref (Rng.int rng pop_size) in
      for _ = 2 to params.Ga.tournament do
        let c = Rng.int rng pop_size in
        if better c !w then w := c
      done;
      (!pop).(!w)
    in
    let offspring =
      Array.init pop_size (fun _ ->
          let a = tournament () and b = tournament () in
          let child =
            if Rng.float rng 1.0 < params.Ga.crossover_p then
              Array.init k (fun g -> if Rng.bool rng then a.(g) else b.(g))
            else Array.copy a
          in
          Array.iteri
            (fun g _ ->
              if Rng.float rng 1.0 < params.Ga.mutation_p then
                child.(g) <- Rng.choice rng p.Ga.levels.(g))
            child;
          child)
    in
    let off_objs = Array.map fitness offspring in
    Emc_obs.Metrics.add m_evaluations pop_size;
    (* environmental selection over parents + offspring (elitist) *)
    let all = Array.append !pop offspring in
    let all_objs = Array.append !objs off_objs in
    let fronts = non_dominated_sort all_objs in
    let next = Array.make pop_size [||] and next_objs = Array.make pop_size [||] in
    let filled = ref 0 in
    List.iter
      (fun front ->
        if !filled < pop_size then begin
          let take =
            if !filled + Array.length front <= pop_size then front
            else begin
              let cd = crowding_distance all_objs front in
              let order = Array.init (Array.length front) Fun.id in
              Array.sort
                (fun a b ->
                  let c = Float.compare cd.(b) cd.(a) (* crowding descending *) in
                  if c <> 0 then c else compare front.(a) front.(b))
                order;
              Array.map (fun pos -> front.(pos)) (Array.sub order 0 (pop_size - !filled))
            end
          in
          Array.iter
            (fun i ->
              next.(!filled) <- all.(i);
              next_objs.(!filled) <- all_objs.(i);
              incr filled)
            take
        end)
      fronts;
    pop := next;
    objs := next_objs;
    Emc_obs.Metrics.incr m_generations
  done;
  match non_dominated_sort !objs with
  | [] -> [||]
  | front :: _ -> finalize !pop !objs front
