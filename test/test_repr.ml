(** Model representations and artifacts: the serialized form of a fitted
    model must reproduce its predictions bit for bit after a full
    JSON-text round trip, and artifact loading must be total — corrupt
    files and version mismatches come back as one-line [Error]s. *)

open Emc_regress
open Emc_core
module Json = Emc_obs.Json

let cb = Alcotest.(check bool)

let rng0 () = Emc_util.Rng.create 42

let sample rng k n f =
  let x = Array.init n (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)) in
  Dataset.create x (Array.map f x)

(* probe points deliberately include corners outside the training cloud so
   clamped models exercise both branches of the envelope *)
let probes k =
  let rng = Emc_util.Rng.create 97 in
  Array.init 64 (fun i ->
      Array.init k (fun _ ->
          if i < 4 then (if i mod 2 = 0 then -1.5 else 1.5)
          else Emc_util.Rng.float rng 2.4 -. 1.2))

(* The whole point of the subsystem: predict → to_json → to_string → parse
   → of_json → eval must be the identity on every output bit. *)
let check_roundtrip ~what (m : Model.t) =
  let repr =
    match m.Model.repr with
    | Some r -> r
    | None -> Alcotest.failf "%s: fitted model carries no repr" what
  in
  let text = Json.to_string (Repr.to_json repr) in
  let reloaded =
    match Json.parse text with
    | Error e -> Alcotest.failf "%s: emitted JSON does not parse: %s" what e
    | Ok j -> (
        match Repr.of_json j with
        | Error e -> Alcotest.failf "%s: repr does not reload: %s" what e
        | Ok r -> r)
  in
  fun dims ->
    Array.iteri
      (fun i x ->
        Alcotest.(check int64)
          (Printf.sprintf "%s: bits at probe %d" what i)
          (Int64.bits_of_float (m.Model.predict x))
          (Int64.bits_of_float (Repr.eval reloaded x)))
      (probes dims)

let f3 x = 50.0 +. (7.0 *. x.(0)) -. (3.0 *. x.(1) *. x.(2)) +. (2.0 *. x.(1) *. x.(1))

let test_linear_roundtrip () =
  let d = sample (rng0 ()) 3 60 f3 in
  check_roundtrip ~what:"linear" (Linear.fit ~interactions:false d) 3;
  check_roundtrip ~what:"linear+interactions" (Linear.fit ~interactions:true d) 3

let test_rank_roundtrip () =
  let d = sample (rng0 ()) 3 60 f3 in
  check_roundtrip ~what:"rank" (Rank.fit ~rng:(rng0 ()) d) 3;
  check_roundtrip ~what:"rank no-interactions" (Rank.fit ~interactions:false ~rng:(rng0 ()) d) 3;
  (* strictness: a rank repr with no coefficients must not load *)
  let bad =
    Json.Obj
      [ ("family", Json.Str "rank"); ("interactions", Json.Bool true);
        ("beta", Json.List []) ]
  in
  cb "empty beta rejected" true (Result.is_error (Repr.of_json bad))

let test_mars_roundtrip () =
  let d = sample (rng0 ()) 3 120 f3 in
  check_roundtrip ~what:"mars" (Mars.fit d) 3

let test_rbf_roundtrip () =
  let d = sample (rng0 ()) 3 80 f3 in
  List.iter
    (fun k ->
      check_roundtrip
        ~what:("rbf:" ^ Rbf.kernel_name k)
        (Rbf.fit ~kernel:k ~size_grid:[ 6; 10 ] d)
        3)
    [ Rbf.Gaussian; Rbf.Multiquadric; Rbf.InverseMultiquadric ]

let test_clamped_roundtrip () =
  let d = sample (rng0 ()) 3 80 f3 in
  List.iter
    (fun t ->
      let m = Modeling.fit t d in
      (match m.Model.repr with
      | Some (Repr.Clamp _) -> ()
      | Some _ -> Alcotest.failf "%s: Modeling.fit repr is not clamped" (Modeling.technique_name t)
      | None -> Alcotest.failf "%s: Modeling.fit dropped the repr" (Modeling.technique_name t));
      check_roundtrip ~what:("clamped " ^ Modeling.technique_name t) m 3)
    Modeling.all_techniques

let test_eval_matches_predict_exactly () =
  (* same check without serialization: predict IS Repr.eval repr *)
  let d = sample (rng0 ()) 4 90 (fun x -> 10.0 +. x.(0) -. (2.0 *. x.(3))) in
  let m = Rbf.fit d in
  let repr = Option.get m.Model.repr in
  Array.iter
    (fun x ->
      Alcotest.(check int64) "predict = eval repr"
        (Int64.bits_of_float (m.Model.predict x))
        (Int64.bits_of_float (Repr.eval repr x)))
    (probes 4)

(* [Repr.eval] is staged: one closure reuses its feature scratch across
   calls. Reused, it must agree with a fresh [Repr.eval repr x] on every
   output bit, for every family and under the Modeling clamp. *)
let test_staged_eval_matches_fresh () =
  let d = sample (rng0 ()) 3 80 f3 in
  let reprs =
    [ ("linear", Option.get (Linear.fit ~interactions:false d).Model.repr);
      ("linear+interactions", Option.get (Linear.fit ~interactions:true d).Model.repr);
      ("rank", Option.get (Rank.fit ~rng:(rng0 ()) d).Model.repr);
      ("mars", Option.get (Mars.fit (sample (rng0 ()) 3 120 f3)).Model.repr);
      ("rbf", Option.get (Rbf.fit ~size_grid:[ 6 ] d).Model.repr) ]
    @ List.map
        (fun t ->
          ("clamped " ^ Modeling.technique_name t,
           Option.get (Modeling.fit t d).Model.repr))
        Modeling.all_techniques
  in
  List.iter
    (fun (what, repr) ->
      let f = Repr.eval repr in
      (* two passes over the probes: every call after the first reuses
         the scratch *)
      for pass = 1 to 2 do
        Array.iteri
          (fun i x ->
            Alcotest.(check int64)
              (Printf.sprintf "%s: staged = fresh at probe %d pass %d" what i pass)
              (Int64.bits_of_float (Repr.eval repr x))
              (Int64.bits_of_float (f x)))
          (probes 3)
      done)
    reprs

(* ---------------- artifacts ---------------- *)

let tmpfile () = Filename.temp_file "emc_artifact" ".json"

let specs3 =
  Array.init 3 (fun i ->
      { Params.name = Printf.sprintf "p%d" i; levels = [| 0.0; 1.0; 2.0 |]; log2 = false })

let artifact_of_fit () =
  let d = sample (rng0 ()) 3 80 f3 in
  let m = Modeling.fit Modeling.Rbf d in
  match
    Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:42 ~train_n:80 ~test_mape:1.5
      ~specs:specs3 m
  with
  | Ok a -> (m, a)
  | Error e -> Alcotest.failf "of_model: %s" e

let test_artifact_save_load_bits () =
  let m, a = artifact_of_fit () in
  let path = tmpfile () in
  Artifact.save a path;
  match Artifact.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok b ->
      Sys.remove path;
      Alcotest.(check string) "workload" a.Artifact.workload b.Artifact.workload;
      Alcotest.(check string) "technique" a.Artifact.technique b.Artifact.technique;
      Alcotest.(check int) "seed" a.Artifact.seed b.Artifact.seed;
      Alcotest.(check int) "train_n" a.Artifact.train_n b.Artifact.train_n;
      Alcotest.(check int) "dims" 3 (Artifact.dims b);
      cb "test_mape preserved" true (b.Artifact.test_mape = Some 1.5);
      let reloaded = Artifact.model b in
      Array.iter
        (fun x ->
          Alcotest.(check int64) "loaded artifact predicts bit-identically"
            (Int64.bits_of_float (m.Emc_regress.Model.predict x))
            (Int64.bits_of_float (reloaded.Emc_regress.Model.predict x)))
        (probes 3)

(* Two-response artifacts: the "extra" reprs round-trip bit-exactly, and
   artifacts without them serialize byte-identically to the pre-extra
   format (no stray field). *)
let test_artifact_extra_responses () =
  let d = sample (rng0 ()) 3 80 f3 in
  let m = Modeling.fit Modeling.Rbf d in
  let energy = Modeling.fit Modeling.Linear d in
  let er = Option.get energy.Emc_regress.Model.repr in
  (match
     Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:42 ~train_n:80
       ~specs:specs3 ~extra:[ ("energy", er) ] m
   with
  | Error e -> Alcotest.failf "of_model: %s" e
  | Ok a -> (
      let path = tmpfile () in
      Artifact.save a path;
      match Artifact.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok b ->
          Sys.remove path;
          let r = Option.get (Artifact.extra_repr b "energy") in
          cb "unknown extra name is None" true (Artifact.extra_repr b "area" = None);
          Array.iter
            (fun x ->
              Alcotest.(check int64) "extra response round-trips bit-exactly"
                (Int64.bits_of_float (energy.Emc_regress.Model.predict x))
                (Int64.bits_of_float (Repr.eval r x)))
            (probes 3)));
  (* absence of extras leaves the serialized form without the field *)
  let _, plain = artifact_of_fit () in
  cb "no extra field when empty" true
    (Json.member "extra" (Artifact.to_json plain) = None)

let test_artifact_validation () =
  let m, a = artifact_of_fit () in
  cb "right arity ok" true (Artifact.validate_point a [| 0.1; 0.2; 0.3 |] = Ok ());
  cb "wrong arity rejected" true (Result.is_error (Artifact.validate_point a [| 0.1 |]));
  cb "non-finite rejected" true
    (Result.is_error (Artifact.validate_point a [| 0.1; Float.nan; 0.3 |]));
  (match Artifact.code_raw a [| 0.0; 1.0; 2.0 |] with
  | Ok c ->
      Alcotest.(check (float 1e-9)) "raw low codes to -1" (-1.0) c.(0);
      Alcotest.(check (float 1e-9)) "raw high codes to +1" 1.0 c.(2)
  | Error e -> Alcotest.failf "code_raw: %s" e);
  cb "code_raw arity checked" true (Result.is_error (Artifact.code_raw a [| 0.0 |]));
  (* a raw value with no finite coding (non-finite, or not positive in a
     log2-coded parameter) is an Error that names the parameter *)
  let specs =
    [| specs3.(0); { Params.name = "size"; levels = [| 1.0; 2.0; 4.0 |]; log2 = true }; specs3.(2) |]
  in
  let logged =
    match Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:42 ~train_n:80 ~specs m with
    | Ok a -> a
    | Error e -> Alcotest.failf "of_model: %s" e
  in
  cb "positive log2 value codes" true
    (Result.is_ok (Artifact.code_raw logged [| 0.0; 2.0; 1.0 |]));
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (raw, name) ->
      let show x = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%g") x)) in
      match Artifact.code_raw logged raw with
      | Ok c -> Alcotest.failf "[%s] coded to [%s]" (show raw) (show c)
      | Error e -> cb (Printf.sprintf "[%s]: %S names %s" (show raw) e name) true (contains ~sub:name e))
    [ ([| 0.0; 0.0; 1.0 |], "size");
      ([| 0.0; -2.0; 1.0 |], "size");
      ([| Float.nan; 2.0; 1.0 |], "p0");
      ([| 0.0; 2.0; Float.infinity |], "p2") ]

let test_artifact_rejects_reprless_model () =
  let stub =
    { Emc_regress.Model.technique = "stub"; predict = (fun _ -> 0.0); n_params = 0; terms = [];
      repr = None }
  in
  cb "stub model rejected" true
    (Result.is_error
       (Artifact.of_model ~workload:"w" ~scale:"tiny" ~seed:1 ~train_n:1 stub))

let expect_load_error ~what path pattern =
  match Artifact.load path with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
  | Error e ->
      let lower = String.lowercase_ascii e in
      let found =
        let n = String.length lower and m = String.length pattern in
        let rec go i = i + m <= n && (String.sub lower i m = pattern || go (i + 1)) in
        go 0
      in
      cb (Printf.sprintf "%s: diagnostic %S mentions %S" what e pattern) true found;
      cb (what ^ ": diagnostic is one line") true (not (String.contains e '\n'))

let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_artifact_load_errors () =
  let _, a = artifact_of_fit () in
  let path = tmpfile () in
  write path "{ not json";
  expect_load_error ~what:"corrupt" path "json";
  write path "[1,2,3]";
  expect_load_error ~what:"non-object" path "format";
  write path {|{"format":"something-else","version":1}|};
  expect_load_error ~what:"wrong format" path "format";
  (* a version from the future must fail with a version diagnostic, even
     when the rest of the document is a perfectly good artifact *)
  (match Artifact.to_json a with
  | Json.Obj kvs ->
      let bumped =
        Json.Obj
          (List.map (function "version", _ -> ("version", Json.Int 99) | kv -> kv) kvs)
      in
      write path (Json.to_string bumped)
  | _ -> Alcotest.fail "artifact JSON is not an object");
  expect_load_error ~what:"future version" path "version 99";
  (* a repr that does not fit the 3-parameter schema would raise, or drop
     coordinates, at evaluation: it must not load, wherever it sits *)
  let linear n =
    Repr.Linear { interactions = true; beta = Array.make n 1.0; mu = 0.0; sd = 1.0 }
  in
  let rbf center =
    Repr.Rbf
      { kernel = Repr.Gaussian; centers = [| center |]; radii = [| 1.0 |];
        weights = [| 0.0; 1.0 |]; mu = 0.0; sd = 1.0 }
  in
  let hinge = { Repr.dim = 99; knot = 0.0; positive = true } in
  List.iter
    (fun (what, bad, pattern) ->
      Artifact.save bad path;
      expect_load_error ~what path pattern)
    [ ( "mars hinge on dimension 99",
        { a with
          Artifact.repr =
            Repr.Mars
              { bases = [| []; [ hinge ] |]; weights = [| 1.0; 1.0 |]; mu = 0.0; sd = 1.0 } },
        "dimension 99" );
      ( "rbf center cut to 2 coordinates",
        { a with Artifact.repr = rbf [| 0.0; 0.0 |] },
        "2 coordinates" );
      ("linear beta cut to 5 coefficients", { a with Artifact.repr = linear 5 }, "5 coefficients");
      ( "clamped rbf center with 5 extra coordinates",
        { a with Artifact.repr = Repr.Clamp { lo = 0.0; hi = 1.0; body = rbf (Array.make 8 0.0) } },
        "8 coordinates" );
      ( "extra response beta with 10 extra coefficients",
        { a with Artifact.extra = [ ("energy", linear 20) ] },
        "\"energy\": linear: 20 coefficients" ) ];
  Sys.remove path;
  expect_load_error ~what:"missing file" path "no such file"

let test_artifact_version_constant () =
  let _, a = artifact_of_fit () in
  match Artifact.to_json a with
  | Json.Obj kvs ->
      cb "format header present" true
        (List.assoc_opt "format" kvs = Some (Json.Str "emc-model"));
      cb "version header present" true
        (List.assoc_opt "version" kvs = Some (Json.Int Artifact.current_version))
  | _ -> Alcotest.fail "artifact JSON is not an object"

let test_repr_of_json_strictness () =
  let bad =
    [
      ("unknown family", {|{"family":"spline"}|});
      ("missing fields", {|{"family":"linear","interactions":false}|});
      ("malformed float", {|{"family":"linear","interactions":false,"beta":["zz"],"mu":"0x0p+0","sd":"0x1p+0"}|});
      ( "radii/centers mismatch",
        {|{"family":"rbf","kernel":"gaussian","centers":[["0x0p+0"]],"radii":[],"weights":["0x0p+0","0x1p+0"],"mu":"0x0p+0","sd":"0x1p+0"}|}
      );
    ]
  in
  List.iter
    (fun (what, text) ->
      match Json.parse text with
      | Error e -> Alcotest.failf "%s: test fixture does not parse: %s" what e
      | Ok j -> cb what true (Result.is_error (Repr.of_json j)))
    bad

(* ---------------- allocation ---------------- *)

(* A staged evaluator boxes its float result and nothing per term: after
   one warm-up call, 1000 calls of each family allocate at most 4 minor
   words per call, at two model sizes, so a per-center or per-coefficient
   box cannot hide under the bound. *)
let words_per_call f x =
  ignore (Sys.opaque_identity (f x));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f x))
  done;
  (Gc.minor_words () -. before) /. 1000.0

let test_eval_allocates_o1_words () =
  let rng = Emc_util.Rng.create 5 in
  let k = 25 in
  let coord () = Emc_util.Rng.float rng 2.0 -. 1.0 in
  let floats n = Array.init n (fun _ -> coord ()) in
  let factor dim = { Repr.dim; knot = coord (); positive = Emc_util.Rng.int rng 2 = 0 } in
  (* the intercept, then hinges, every third one a two-factor product *)
  let basis i =
    if i = 0 then []
    else if i mod 3 = 0 then [ factor (i mod k); factor ((i + 7) mod k) ]
    else [ factor (i mod k) ]
  in
  let mars n = Repr.Mars { bases = Array.init n basis; weights = floats n; mu = 1.0; sd = 2.0 } in
  let rbf kernel n =
    Repr.Rbf
      { kernel; centers = Array.init n (fun _ -> floats k);
        radii = Array.init n (fun _ -> 1.0 +. Float.abs (coord ())); weights = floats (n + 1);
        mu = 1.0; sd = 2.0 }
  in
  let beta dims = floats (Repr.n_features ~interactions:true dims) in
  let linear dims = Repr.Linear { interactions = true; beta = beta dims; mu = 1.0; sd = 2.0 } in
  let rank dims = Repr.Rank { interactions = true; beta = beta dims } in
  let cases =
    [ ("linear, 4 dims", linear 4, 4); ("linear, 25 dims", linear k, k);
      ("rank, 4 dims", rank 4, 4); ("rank, 25 dims", rank k, k);
      ("mars, 3 bases", mars 3, k); ("mars, 23 bases", mars 23, k);
      ("rbf gaussian, 4 centers", rbf Repr.Gaussian 4, k);
      ("rbf multiquadric, 4 centers", rbf Repr.Multiquadric 4, k);
      ("rbf multiquadric, 32 centers", rbf Repr.Multiquadric 32, k);
      ("rbf inverse multiquadric, 32 centers", rbf Repr.InverseMultiquadric 32, k) ]
  in
  List.iter
    (fun (what, r, dims) ->
      let w = words_per_call (Repr.eval r) (floats dims) in
      cb (Printf.sprintf "%s: %.1f words per call" what w) true (w <= 4.0))
    cases

(* ---- evaluation as it was before its loops read unchecked ---- *)

(* A verbatim copy of the checked evaluator: [Repr.eval] must give its
   bits for every family, and reordering any sum in one of its loops must
   fail the property below. *)
module Parent = struct
  type factor = Repr.factor = { dim : int; knot : float; positive : bool }
  type kernel = Repr.kernel = Gaussian | Multiquadric | InverseMultiquadric

  type t = Repr.t =
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

  let n_features ~interactions k = if interactions then 1 + k + (k * (k + 1) / 2) else 1 + k

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

  (* The kernels below are loops over local accumulators, and the three
     float-valued helpers are [@inline]: without flambda, a float captured by
     a closure is boxed on every update, and a float returned from a call
     that is not inlined is boxed once per call. Inlined into [eval], they
     leave a staged evaluation one allocation, the box of its result. *)

  (* Every factor multiplies in, in list order; one at or below its knot
     zeroes the product, and later factors still multiply the zero. *)
  let[@inline] eval_basis (b : factor list) x =
    let acc = ref 1.0 and rest = ref b in
    while
      match !rest with
      | [] -> false
      | f :: tl ->
          let v = if f.positive then x.(f.dim) -. f.knot else f.knot -. x.(f.dim) in
          acc := if v <= 0.0 then 0.0 else !acc *. v;
          rest := tl;
          true
    do
      ()
    done;
    !acc

  let[@inline] eval_kernel kernel ~r d2 =
    match kernel with
    | Gaussian -> exp (-.d2 /. (2.0 *. r *. r))
    | Multiquadric -> sqrt ((d2 /. (r *. r)) +. 1.0)
    | InverseMultiquadric -> 1.0 /. sqrt ((d2 /. (r *. r)) +. 1.0)

  let[@inline] dist2 a b =
    let acc = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
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
          for i = 0 to Array.length bases - 1 do
            acc := !acc +. (weights.(i) *. eval_basis bases.(i) x)
          done;
          (!acc *. sd) +. mu
    | Rbf { kernel; centers; radii; weights; mu; sd } ->
        fun x ->
          let acc = ref weights.(0) in
          for j = 0 to Array.length centers - 1 do
            acc :=
              !acc +. (weights.(j + 1) *. eval_kernel kernel ~r:radii.(j) (dist2 x centers.(j)))
          done;
          (!acc *. sd) +. mu
    | Rank { interactions; beta } ->
        (* a unitless ranking score over the same feature expansion as
           Linear, without response standardization: only order matters *)
        dot_features ~interactions beta
    | Clamp { lo; hi; body } ->
        let f = eval body in
        fun x -> Float.max lo (Float.min hi (f x))
end

let wide = Helpers.wide

(* A random repr of [k] dimensions in [family] (0 linear, 1 rank, 2 MARS,
   3 RBF), clamped on odd seeds: up to 12 bases of up to three hinges,
   and from no center to 12 centers under each kernel. *)
let random_repr rng ~family ~k =
  let floats n = Array.init n (fun _ -> wide rng) in
  let interactions = Emc_util.Rng.bool rng in
  let r =
    match family with
    | 0 ->
        Repr.Linear
          { interactions; beta = floats (Repr.n_features ~interactions k); mu = wide rng;
            sd = wide rng }
    | 1 -> Repr.Rank { interactions; beta = floats (Repr.n_features ~interactions k) }
    | 2 ->
        let nb = Emc_util.Rng.int rng 13 in
        let factor _ =
          { Repr.dim = Emc_util.Rng.int rng k; knot = wide rng *. 1e-3;
            positive = Emc_util.Rng.bool rng }
        in
        Repr.Mars
          { bases = Array.init nb (fun _ -> List.init (Emc_util.Rng.int rng 4) factor);
            weights = floats nb; mu = wide rng; sd = wide rng }
    | _ ->
        let nc = Emc_util.Rng.int rng 13 in
        Repr.Rbf
          { kernel =
              (match Emc_util.Rng.int rng 3 with
              | 0 -> Repr.Gaussian
              | 1 -> Repr.Multiquadric
              | _ -> Repr.InverseMultiquadric);
            centers = Array.init nc (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0));
            radii = Array.init nc (fun _ -> 0.5 +. Emc_util.Rng.float rng 2.0);
            weights = floats (nc + 1); mu = wide rng; sd = wide rng }
  in
  if Emc_util.Rng.bool rng then Repr.Clamp { lo = -1e6; hi = 1e6; body = r } else r

let prop_eval_parent_bits =
  QCheck.Test.make ~name:"eval keeps its checked parent's bits in every family" ~count:400
    QCheck.(make Gen.(triple (int_range 0 3) (int_range 1 9) (int_range 0 10_000)))
    (fun (family, k, seed) ->
      let rng = Emc_util.Rng.create seed in
      let r = random_repr rng ~family ~k in
      let f = Repr.eval r and f' = Parent.eval r in
      List.for_all
        (fun _ ->
          let x = Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
          Helpers.bits_eq (f x) (f' x))
        (List.init 8 Fun.id))

(* The entry checks: arrays of a repr that do not match raise
   [Invalid_argument] when it is staged, and a point that does not reach
   every coordinate the repr reads raises on the call, before any read. *)
let test_eval_entry_checks () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let rbf ?(radii = [| 1.0; 1.0 |]) ?(weights = [| 0.1; 0.2; 0.3 |]) centers =
    Repr.Rbf { kernel = Repr.Gaussian; centers; radii; weights; mu = 0.0; sd = 1.0 }
  in
  let centers = [| [| 0.0; 0.5 |]; [| 0.5; 0.0 |] |] in
  raises "rbf, a missing radius" (fun () -> Repr.eval (rbf ~radii:[| 1.0 |] centers));
  raises "rbf, a missing weight" (fun () -> Repr.eval (rbf ~weights:[| 0.1; 0.2 |] centers));
  let short = Repr.eval (rbf [| [| 0.0; 0.5 |]; [| 0.5 |] |]) in
  raises "rbf, a center shorter than the point" (fun () -> short [| 0.1; 0.2 |]);
  let mars ?(weights = [| 1.0 |]) dim =
    Repr.Mars
      { bases = [| [ { Repr.dim; knot = 0.0; positive = true } ] |]; weights; mu = 0.0; sd = 1.0 }
  in
  raises "mars, a missing weight" (fun () -> Repr.eval (mars ~weights:[||] 0));
  raises "mars, a negative dimension" (fun () -> Repr.eval (mars (-1)));
  raises "mars, a point short of a hinge" (fun () -> Repr.eval (mars 2) [| 0.1; 0.2 |]);
  let linear = Repr.eval (Repr.Linear { interactions = true; beta = Array.make 6 1.0; mu = 0.0; sd = 1.0 }) in
  raises "linear, a point past the fitted dimensions" (fun () -> linear [| 0.1; 0.2; 0.3 |])

let suite =
  [
    Alcotest.test_case "linear round-trips bit-for-bit" `Quick test_linear_roundtrip;
    Alcotest.test_case "mars round-trips bit-for-bit" `Quick test_mars_roundtrip;
    Alcotest.test_case "rank round-trips bit-for-bit" `Quick test_rank_roundtrip;
    Alcotest.test_case "rbf round-trips bit-for-bit (all kernels)" `Quick test_rbf_roundtrip;
    Alcotest.test_case "clamped models round-trip bit-for-bit" `Quick test_clamped_roundtrip;
    Alcotest.test_case "predict is Repr.eval" `Quick test_eval_matches_predict_exactly;
    Alcotest.test_case "staged eval equals a fresh eval" `Quick
      test_staged_eval_matches_fresh;
    Alcotest.test_case "artifact save/load is bit-exact" `Quick test_artifact_save_load_bits;
    Alcotest.test_case "artifact extra responses round-trip" `Quick
      test_artifact_extra_responses;
    Alcotest.test_case "artifact validates points" `Quick test_artifact_validation;
    Alcotest.test_case "artifact rejects repr-less models" `Quick
      test_artifact_rejects_reprless_model;
    Alcotest.test_case "artifact load errors are total" `Quick test_artifact_load_errors;
    Alcotest.test_case "artifact carries format/version header" `Quick
      test_artifact_version_constant;
    Alcotest.test_case "repr of_json is strict" `Quick test_repr_of_json_strictness;
    Alcotest.test_case "evaluators allocate O(1) words" `Quick test_eval_allocates_o1_words;
    QCheck_alcotest.to_alcotest prop_eval_parent_bits;
    Alcotest.test_case "eval refuses mismatched arrays first" `Quick test_eval_entry_checks;
  ]
