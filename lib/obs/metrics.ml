type counter = { cname : string; mutable count : int }
type gauge = { gname : string; mutable gval : float; mutable gset : bool }

(* ---------------- log-scale bucketing ----------------

   Histograms keep a fixed array of log-spaced buckets instead of raw
   samples: constant memory for any sample count, O(1) observe, and
   bucket-wise mergeability across processes. Bucket i (1-based) covers
   [2^(min_exp + (i-1)/bpo), 2^(min_exp + i/bpo)); index 0 is the
   underflow bucket (values below 2^min_exp, including zero, negatives
   and NaN) and index n_core+1 the overflow bucket. *)

let buckets_per_octave = 32
let min_exp = -30 (* 2^-30 ~ 9.3e-10 *)
let max_exp = 50 (* 2^50  ~ 1.1e15 *)
let n_core = (max_exp - min_exp) * buckets_per_octave
let n_buckets = n_core + 2
let lo_bound = Float.ldexp 1.0 min_exp
let hi_bound = Float.ldexp 1.0 max_exp
let inv_ln2 = 1.0 /. Float.log 2.0

let bucket_of v =
  if not (v >= lo_bound) then 0
  else if v >= hi_bound then n_core + 1
  else begin
    let e =
      (Float.log v *. inv_ln2 -. float_of_int min_exp) *. float_of_int buckets_per_octave
    in
    let i = int_of_float e in
    1 + if i < 0 then 0 else if i >= n_core then n_core - 1 else i
  end

let bucket_upper i =
  if i <= 0 then lo_bound
  else if i > n_core then Float.infinity
  else
    Float.exp
      (Float.log 2.0
      *. (float_of_int min_exp +. (float_of_int i /. float_of_int buckets_per_octave)))

type histogram = {
  hname : string;
  hbuckets : int array;
  mutable hcount : int;
  mutable hsum : float;
  mutable hsum_c : float; (* Kahan compensation, so sums stay exact-ish *)
  mutable hmin : float;
  mutable hmax : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make check =
  match Hashtbl.find_opt registry name with
  | Some m -> (
      match check m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name m)))
  | None ->
      let m, v = make () in
      Hashtbl.replace registry name m;
      v

let counter name =
  register name
    (fun () ->
      let c = { cname = name; count = 0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let incr ?(by = 1) c = c.count <- c.count + by
let add c n = c.count <- c.count + n
let value c = c.count

let gauge name =
  register name
    (fun () ->
      let g = { gname = name; gval = 0.0; gset = false } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let set g v =
  g.gval <- v;
  g.gset <- true

let gauge_read g = if g.gset then Some g.gval else None

let histogram name =
  register name
    (fun () ->
      let h =
        {
          hname = name;
          hbuckets = Array.make n_buckets 0;
          hcount = 0;
          hsum = 0.0;
          hsum_c = 0.0;
          hmin = Float.infinity;
          hmax = Float.neg_infinity;
        }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let observe h v =
  let i = bucket_of v in
  h.hbuckets.(i) <- h.hbuckets.(i) + 1;
  h.hcount <- h.hcount + 1;
  let y = v -. h.hsum_c in
  let t = h.hsum +. y in
  h.hsum_c <- (t -. h.hsum) -. y;
  h.hsum <- t;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

type hstats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Percentile over a cumulative walk of sparse (index, count) pairs:
   the upper bound of the bucket holding the rank-th sample, clamped to
   the exactly-tracked [min, max]. Accurate to one bucket width. *)
let percentile_sparse sparse total mn mx q =
  if total = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q /. 100.0 *. float_of_int total)) in
      if r < 1 then 1 else if r > total then total else r
    in
    let rec go cum = function
      | [] -> mx
      | (i, c) :: rest ->
          let cum = cum + c in
          if cum >= rank then Float.min mx (Float.max mn (bucket_upper i)) else go cum rest
    in
    go 0 sparse
  end

let sparse_of_array a =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    if a.(i) > 0 then out := (i, a.(i)) :: !out
  done;
  !out

let stats_of_sparse sparse total sum mn mx =
  if total = 0 then None
  else
    let p q = percentile_sparse sparse total mn mx q in
    Some
      {
        count = total;
        sum;
        mean = sum /. float_of_int total;
        min = mn;
        max = mx;
        p50 = p 50.0;
        p90 = p 90.0;
        p99 = p 99.0;
      }

let histogram_stats h =
  stats_of_sparse (sparse_of_array h.hbuckets) h.hcount h.hsum h.hmin h.hmax

let histogram_percentile h q =
  if h.hcount = 0 then None
  else Some (percentile_sparse (sparse_of_array h.hbuckets) h.hcount h.hmin h.hmax q)

let counter_value name =
  match Hashtbl.find_opt registry name with Some (C c) -> Some c.count | _ -> None

let gauge_value name =
  match Hashtbl.find_opt registry name with Some (G g) -> gauge_read g | _ -> None

let stats_of name =
  match Hashtbl.find_opt registry name with Some (H h) -> histogram_stats h | _ -> None

let sorted_metrics () =
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

(* ---------------- snapshots: serialize + merge ---------------- *)

type hsnap = {
  s_count : int;
  s_sum : float;
  s_min : float; (* +inf when empty *)
  s_max : float; (* -inf when empty *)
  s_buckets : (int * int) list; (* sparse, ascending bucket index *)
}

type snapshot = {
  counters : (string * int) list; (* all sorted by name *)
  gauges : (string * float) list;
  hists : (string * hsnap) list;
}

let snapshot_empty = { counters = []; gauges = []; hists = [] }

let hsnap_of_histogram h =
  {
    s_count = h.hcount;
    s_sum = h.hsum;
    s_min = h.hmin;
    s_max = h.hmax;
    s_buckets = sparse_of_array h.hbuckets;
  }

let snapshot () =
  List.fold_right
    (fun (name, m) acc ->
      match m with
      | C c -> { acc with counters = (name, c.count) :: acc.counters }
      | G g -> if g.gset then { acc with gauges = (name, g.gval) :: acc.gauges } else acc
      | H h -> { acc with hists = (name, hsnap_of_histogram h) :: acc.hists })
    (sorted_metrics ()) snapshot_empty

let rec merge_sparse a b =
  match (a, b) with
  | [], x | x, [] -> x
  | (ia, ca) :: ta, (ib, cb) :: tb ->
      if ia = ib then (ia, ca + cb) :: merge_sparse ta tb
      else if ia < ib then (ia, ca) :: merge_sparse ta b
      else (ib, cb) :: merge_sparse a tb

let merge_hsnap a b =
  {
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
    s_buckets = merge_sparse a.s_buckets b.s_buckets;
  }

(* Merge two sorted assoc lists, combining values under equal names. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], x | x, [] -> x
  | (na, va) :: ta, (nb, vb) :: tb ->
      let c = String.compare na nb in
      if c = 0 then (na, combine va vb) :: merge_assoc combine ta tb
      else if c < 0 then (na, va) :: merge_assoc combine ta b
      else (nb, vb) :: merge_assoc combine a tb

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    gauges = merge_assoc (fun _ r -> r) a.gauges b.gauges;
    hists = merge_assoc merge_hsnap a.hists b.hists;
  }

let snapshot_counters s = s.counters
let snapshot_gauges s = s.gauges
let snapshot_histograms s = s.hists

let hsnap_stats h = stats_of_sparse h.s_buckets h.s_count h.s_sum h.s_min h.s_max

let hsnap_percentile h q =
  if h.s_count = 0 then None
  else Some (percentile_sparse h.s_buckets h.s_count h.s_min h.s_max q)

let hsnap_cumulative h =
  let _, acc =
    List.fold_left
      (fun (cum, acc) (i, c) ->
        let cum = cum + c in
        (cum, (Float.min (bucket_upper i) h.s_max, cum) :: acc))
      (0, []) h.s_buckets
  in
  List.rev acc

let snapshot_to_json s =
  Json.Obj
    [
      ("schema", Json.Str "emc-metrics-snapshot/1");
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, h) ->
               ( n,
                 Json.Obj
                   ([ ("count", Json.Int h.s_count); ("sum", Json.Float h.s_sum) ]
                   @ (if h.s_count > 0 then
                        [ ("min", Json.Float h.s_min); ("max", Json.Float h.s_max) ]
                      else [])
                   @ [
                       ( "buckets",
                         Json.List
                           (List.map
                              (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
                              h.s_buckets) );
                     ]) ))
             s.hists) );
    ]

let snapshot_of_json j =
  let ( let* ) r k = Result.bind r k in
  let obj = function Json.Obj kvs -> Ok kvs | _ -> Error "expected an object" in
  let num = function
    | Json.Null -> Ok Float.nan (* non-finite sums and gauges render as null *)
    | v -> Json.as_float v
  in
  let named what read (n, v) =
    Result.map_error (Printf.sprintf "%s %S: %s" what n)
      (Result.map (fun x -> (n, x)) (read v))
  in
  let bucket = function
    | Json.List [ Json.Int i; Json.Int c ] when i >= 0 && i < n_buckets && c > 0 -> Ok (i, c)
    | _ -> Error "malformed bucket"
  in
  let hsnap h =
    let* s_count = Json.get "count" Json.as_int h in
    let* s_sum = Json.get "sum" num h in
    let* s_min = Option.fold ~none:(Ok Float.infinity) ~some:num (Json.member "min" h) in
    let* s_max = Option.fold ~none:(Ok Float.neg_infinity) ~some:num (Json.member "max" h) in
    let* buckets = Json.get "buckets" (Json.list_of bucket) h in
    if s_count < 0 then Error "negative count"
    else
      let s_buckets = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
      Ok { s_count; s_sum; s_min; s_max; s_buckets }
  in
  (* List.sort is stable: a name listed twice keeps its later entry first *)
  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev l) in
  Result.map_error (( ^ ) "snapshot: ")
    (let* schema = Json.get "schema" Json.as_str j in
     let* () =
       if schema = "emc-metrics-snapshot/1" then Ok ()
       else Error (Printf.sprintf "unsupported schema %S" schema)
     in
     let* counters =
       Result.bind (Json.get "counters" obj j) (Json.map_result (named "counter" Json.as_int))
     in
     let* gauges = Result.bind (Json.get "gauges" obj j) (Json.map_result (named "gauge" num)) in
     let* hists =
       Result.bind (Json.get "histograms" obj j) (Json.map_result (named "histogram" hsnap))
     in
     Ok { counters = sorted counters; gauges = sorted gauges; hists = sorted hists })

(* ---------------- dumps ---------------- *)

let dump_text () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      match m with
      | C c -> Buffer.add_string buf (Printf.sprintf "counter    %-36s %d\n" name c.count)
      | G g ->
          Buffer.add_string buf
            (Printf.sprintf "gauge      %-36s %s\n" name
               (if g.gset then Printf.sprintf "%g" g.gval else "unset"))
      | H h -> (
          match histogram_stats h with
          | None -> Buffer.add_string buf (Printf.sprintf "histogram  %-36s empty\n" name)
          | Some s ->
              Buffer.add_string buf
                (Printf.sprintf
                   "histogram  %-36s count=%d mean=%g min=%g p50=%g p90=%g p99=%g max=%g\n" name
                   s.count s.mean s.min s.p50 s.p90 s.p99 s.max)))
    (sorted_metrics ());
  Buffer.contents buf

let to_json () =
  Json.Obj
    (List.map
       (fun (name, m) ->
         let v =
           match m with
           | C c -> Json.Int c.count
           | G g -> if g.gset then Json.Float g.gval else Json.Null
           | H h -> (
               match histogram_stats h with
               | None -> Json.Obj [ ("count", Json.Int 0) ]
               | Some s ->
                   Json.Obj
                     [
                       ("count", Json.Int s.count);
                       ("sum", Json.Float s.sum);
                       ("mean", Json.Float s.mean);
                       ("min", Json.Float s.min);
                       ("max", Json.Float s.max);
                       ("p50", Json.Float s.p50);
                       ("p90", Json.Float s.p90);
                       ("p99", Json.Float s.p99);
                     ])
         in
         (name, v))
       (sorted_metrics ()))

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.count <- 0
      | G g -> g.gset <- false
      | H h ->
          Array.fill h.hbuckets 0 n_buckets 0;
          h.hcount <- 0;
          h.hsum <- 0.0;
          h.hsum_c <- 0.0;
          h.hmin <- Float.infinity;
          h.hmax <- Float.neg_infinity)
    registry
