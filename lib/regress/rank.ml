(** Pairwise ranking model (RankNet-style logistic, cf. the HW-AutoTuning
    pairing of a regression model with a ranking model).

    The search consumer (paper §6.3) minimizes a predicted response, so all
    it needs is the {e order} of design points. This learner optimizes that
    directly: a linear scorer [s(x) = beta . expand x] over the same coded
    feature expansion as {!Linear}, trained by stochastic gradient ascent on
    the pairwise logistic likelihood — for every sampled pair with
    [y_i < y_j] the model is pushed toward [s(x_i) < s(x_j)]. Scores are
    unitless (higher score = predicted worse response); only comparisons
    between them mean anything.

    The fit is deterministic for a given generator state: pair sampling is
    the only stochastic component and it threads [rng] explicitly. *)

let technique = "rank-pairwise"

let fit ?(interactions = true) ?(epochs = 60) ?(lr = 0.05) ?pairs_per_epoch ?(names = [||])
    ~rng (d : Dataset.t) : Model.t =
  let n = Dataset.size d in
  let k = Dataset.dims d in
  let names = if Array.length names = k then names else Array.init k (Printf.sprintf "x%d") in
  let rows = Array.map (Repr.expand ~interactions) d.Dataset.x in
  let p = Repr.n_features ~interactions k in
  (* the feature pass below reads rows unchecked *)
  if Array.exists (fun r -> Array.length r < p) rows then
    invalid_arg "Rank.fit: a point with fewer coordinates than the first";
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
          let b =
            Array.unsafe_get beta f
            +. (st *. (Array.unsafe_get ph f -. Array.unsafe_get pl f))
          in
          Array.unsafe_set beta f b;
          sh := !sh +. (Array.unsafe_get rh f *. b);
          sl := !sl +. (Array.unsafe_get rl f *. b)
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
