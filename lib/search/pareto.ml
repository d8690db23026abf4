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
let h_seconds = Emc_obs.Metrics.histogram "pareto.optimize_seconds"

(* 1 when [a] dominates [b], -1 when [b] dominates [a], else 0, over [a]'s
   objectives. Each objective is ordered by Ga.fitness_order's rule, written
   out here (a NaN is worse than any number, two NaNs tie): dune's dev
   profile compiles modules -opaque, so a call into Ga would be a closure
   call per objective. *)
let dominance (a : float array) (b : float array) =
  let a_better = ref false and b_better = ref false in
  for o = 0 to Array.length a - 1 do
    let x = a.(o) and y = b.(o) in
    if x < y || (y <> y && x = x) then a_better := true
    else if y < x || (x <> x && y = y) then b_better := true
  done;
  if !a_better = !b_better then 0 else if !a_better then 1 else -1

let dominates a b = dominance a b > 0

let is_front objs =
  let n = Array.length objs in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && dominates objs.(i) objs.(j) then ok := false
    done
  done;
  !ok

(* Fast non-dominated sort on flat int arrays: [count.(j)] is how many
   points dominate j, and the points i dominates are [dom.(i * n)] to
   [dom.(i * n + size.(i) - 1)]. Each pair is compared once, for both
   directions. A front is the points whose last dominator lies in the
   previous one; the dominance relation fixes the fronts, and each is
   returned in ascending index order. [optimize] makes one sorter for
   its largest population and reuses it every generation. *)
type sorter = { count : int array; size : int array; next : int array; dom : int array }

(* buffers for sorting up to [cap] points *)
let sorter cap =
  { count = Array.make cap 0; size = Array.make cap 0; next = Array.make cap 0;
    dom = Array.make (cap * cap) 0 }

let sort_fronts { count; size; next; dom } (objs : float array array) : int array list =
  let n = Array.length objs in
  for i = 0 to n - 1 do
    count.(i) <- 0;
    size.(i) <- 0
  done;
  for i = 0 to n - 1 do
    let a = objs.(i) in
    for j = i + 1 to n - 1 do
      let b = objs.(j) in
      if Array.length b <> Array.length a then
        invalid_arg "Pareto.non_dominated_sort: points differ in their number of objectives";
      match dominance a b with
      | 1 ->
          dom.((i * n) + size.(i)) <- j;
          size.(i) <- size.(i) + 1;
          count.(j) <- count.(j) + 1
      | -1 ->
          dom.((j * n) + size.(j)) <- i;
          size.(j) <- size.(j) + 1;
          count.(i) <- count.(i) + 1
      | _ -> ()
    done
  done;
  let rec fronts current acc =
    if Array.length current = 0 then List.rev acc
    else begin
      let k = ref 0 in
      for p = 0 to Array.length current - 1 do
        let i = current.(p) in
        for q = i * n to (i * n) + size.(i) - 1 do
          let j = dom.(q) in
          count.(j) <- count.(j) - 1;
          if count.(j) = 0 then begin
            next.(!k) <- j;
            incr k
          end
        done
      done;
      let front = Array.sub next 0 !k in
      Array.sort Int.compare front;
      fronts front (current :: acc)
    end
  in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if count.(i) = 0 then begin
      next.(!k) <- i;
      incr k
    end
  done;
  fronts (Array.sub next 0 !k) []

let non_dominated_sort objs = sort_fronts (sorter (Array.length objs)) objs

(* Crowding distance of each member of [front] (parallel to [front]):
   boundary points get infinity, interior points the sum of normalized
   gaps to their neighbours along each objective. Objectives with a
   degenerate (zero or non-finite) range contribute nothing. Each
   objective's values are copied out of [objs] once and ordered by
   Ga.fitness_order's rule, written out as in [dominance]; the loops read
   unchecked after the entry check. *)
let crowding_distance (objs : float array array) (front : int array) : float array =
  let k = Array.length front in
  let dist = Array.make k 0.0 in
  if k > 0 then begin
    let m = Array.length objs.(front.(0)) in
    if Array.exists (fun i -> i < 0 || i >= Array.length objs || Array.length objs.(i) < m) front then
      invalid_arg "Pareto.crowding_distance: a front member outside the points or short of objectives";
    let v = Array.make k 0.0 in
    for o = 0 to m - 1 do
      for p = 0 to k - 1 do
        Array.unsafe_set v p (Array.unsafe_get (Array.unsafe_get objs (Array.unsafe_get front p)) o)
      done;
      let order = Array.init k Fun.id in
      Array.sort
        (fun a b ->
          let x = Array.unsafe_get v a and y = Array.unsafe_get v b in
          let c =
            if x <> x then if y <> y then 0 else 1 else if y <> y then -1 else Float.compare x y
          in
          if c <> 0 then c else Int.compare (Array.unsafe_get front a) (Array.unsafe_get front b))
        order;
      dist.(order.(0)) <- infinity;
      dist.(order.(k - 1)) <- infinity;
      let lo = v.(order.(0)) and hi = v.(order.(k - 1)) in
      let range = hi -. lo in
      if Float.is_finite range && range > 0.0 then
        for p = 1 to k - 2 do
          let prev = Array.unsafe_get v (Array.unsafe_get order (p - 1))
          and next = Array.unsafe_get v (Array.unsafe_get order (p + 1)) in
          if Float.is_finite prev && Float.is_finite next then begin
            let q = Array.unsafe_get order p in
            Array.unsafe_set dist q (Array.unsafe_get dist q +. ((next -. prev) /. range))
          end
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
  Array.of_list (List.map (fun p -> { p with genome = Array.copy p.genome }) pts)

let optimize ?(params = Ga.default_params) rng (p : Ga.problem) ~fitness : point array =
  Emc_obs.Trace.with_span ~cat:"search"
    ~args:(fun () ->
      [ ("pop_size", Emc_obs.Json.Int params.Ga.pop_size);
        ("generations", Emc_obs.Json.Int params.Ga.generations) ])
    "pareto.optimize"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let pop_size = params.Ga.pop_size in
  (* environmental selection sorts parents and offspring together *)
  let sorter = sorter (2 * pop_size) in
  let pop = ref (Array.init pop_size (fun _ -> Ga.random_genome rng p)) in
  let objs = ref (Array.map fitness !pop) in
  Emc_obs.Metrics.add m_evaluations pop_size;
  (* per-individual rank and crowding over the current population *)
  let rank_and_crowd objs =
    let n = Array.length objs in
    let rank = Array.make n 0 and crowd = Array.make n 0.0 in
    let fronts = sort_fronts sorter objs in
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
    let offspring = Ga.breed params rng p !pop ~better pop_size in
    let off_objs = Array.map fitness offspring in
    Emc_obs.Metrics.add m_evaluations pop_size;
    (* environmental selection over parents + offspring (elitist) *)
    let all = Array.append !pop offspring in
    let all_objs = Array.append !objs off_objs in
    let fronts = sort_fronts sorter all_objs in
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
  let front =
    match sort_fronts sorter !objs with [] -> [||] | front :: _ -> finalize !pop !objs front
  in
  (* the whole search, once per call: the layer time `--metrics` shows *)
  Emc_obs.Metrics.observe h_seconds (Unix.gettimeofday () -. t0);
  front
