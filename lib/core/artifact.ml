open Emc_regress
module Json = Emc_obs.Json

(** Serializable model artifacts (see artifact.mli). *)

let current_version = 1

let format_name = "emc-model"

type t = {
  workload : string;
  technique : string;
  scale : string;
  seed : int;
  train_n : int;
  test_mape : float option;
  specs : Params.spec array;
  repr : Repr.t;
  n_params : int;
  terms : (string * float) list;
  extra : (string * Repr.t) list;
}

let dims a = Array.length a.specs

let of_model ~workload ~scale ~seed ~train_n ?test_mape ?(specs = Params.all_specs)
    ?(extra = []) (m : Model.t) =
  match m.Model.repr with
  | None ->
      Error
        (Printf.sprintf "model %S has no serializable representation; cannot make an artifact"
           m.Model.technique)
  | Some repr ->
      Ok
        { workload; technique = m.Model.technique; scale; seed; train_n; test_mape; specs;
          repr; n_params = m.Model.n_params; terms = m.Model.terms; extra }

let extra_repr a name = List.assoc_opt name a.extra

let model a : Model.t =
  {
    Model.technique = a.technique;
    predict = Repr.eval a.repr;
    n_params = a.n_params;
    terms = a.terms;
    repr = Some a.repr;
  }

let validate_point a x =
  if Array.length x <> dims a then
    Error (Printf.sprintf "expected %d coded values, got %d" (dims a) (Array.length x))
  else if not (Array.for_all Float.is_finite x) then Error "point contains a non-finite value"
  else Ok ()

let code_raw a raw =
  if Array.length raw <> dims a then
    Error (Printf.sprintf "expected %d raw values, got %d" (dims a) (Array.length raw))
  else
    let coded = Params.code a.specs raw in
    let uncodable i = not (Float.is_finite raw.(i) && Float.is_finite coded.(i)) in
    match Seq.find uncodable (Seq.init (dims a) Fun.id) with
    | None -> Ok coded
    | Some i ->
        let s = a.specs.(i) in
        Error
          (Printf.sprintf "raw %s = %g has no finite coded value%s" s.Params.name raw.(i)
             (if s.Params.log2 then " (log2-coded: it must be positive)" else ""))

(* ---------------- JSON ---------------- *)

let spec_to_json (s : Params.spec) =
  Json.Obj
    [ ("name", Json.Str s.Params.name);
      ("levels", Json.List (Array.to_list (Array.map Json.hex s.Params.levels)));
      ("log2", Json.Bool s.Params.log2) ]

let to_json a =
  Json.Obj
    ([ ("format", Json.Str format_name);
      ("version", Json.Int current_version);
      ("workload", Json.Str a.workload);
      ("technique", Json.Str a.technique);
      ("scale", Json.Str a.scale);
      ("seed", Json.Int a.seed);
      ("train_n", Json.Int a.train_n);
      ("test_mape", (match a.test_mape with Some v -> Json.Float v | None -> Json.Null));
      ("params", Json.List (Array.to_list (Array.map spec_to_json a.specs)));
      ("n_params", Json.Int a.n_params);
      ("terms",
       Json.List
         (List.map
            (fun (n, c) -> Json.Obj [ ("term", Json.Str n); ("coef", Json.hex c) ])
            a.terms));
      ("repr", Repr.to_json a.repr) ]
    @
    (* Extra named responses are emitted only when present, so artifacts
       without them stay byte-identical to what older builds wrote. *)
    (match a.extra with
    | [] -> []
    | extra ->
        [ ("extra", Json.Obj (List.map (fun (name, r) -> (name, Repr.to_json r)) extra)) ]))

let ( let* ) = Result.bind

let spec_of_json j =
  let* name = Result.bind (Json.field "name" j) Json.as_str in
  let* ll = Result.bind (Json.field "levels" j) Json.as_list in
  let* levels = Json.map_result Json.as_float ll in
  let* log2 = Result.bind (Json.field "log2" j) Json.as_bool in
  if levels = [] then Error (Printf.sprintf "parameter %S has no levels" name)
  else Ok { Params.name; levels = Array.of_list levels; log2 }

let term_of_json j =
  let* n = Result.bind (Json.field "term" j) Json.as_str in
  let* c = Result.bind (Json.field "coef" j) Json.as_float in
  Ok (n, c)

let of_json j =
  let* fmt =
    match Json.member "format" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "not an emc model artifact (missing \"format\" header)"
  in
  let* () =
    if fmt = format_name then Ok ()
    else Error (Printf.sprintf "not an emc model artifact (format %S)" fmt)
  in
  let* version = Result.bind (Json.field "version" j) Json.as_int in
  let* () =
    if version = current_version then Ok ()
    else
      Error
        (Printf.sprintf "unsupported artifact format version %d (this build reads version %d)"
           version current_version)
  in
  let* workload = Result.bind (Json.field "workload" j) Json.as_str in
  let* technique = Result.bind (Json.field "technique" j) Json.as_str in
  let* scale = Result.bind (Json.field "scale" j) Json.as_str in
  let* seed = Result.bind (Json.field "seed" j) Json.as_int in
  let* train_n = Result.bind (Json.field "train_n" j) Json.as_int in
  let* test_mape =
    match Json.member "test_mape" j with
    | None | Some Json.Null -> Ok None
    | Some v -> Result.map Option.some (Json.as_float v)
  in
  let* sl = Result.bind (Json.field "params" j) Json.as_list in
  let* specs = Json.map_result spec_of_json sl in
  let* n_params = Result.bind (Json.field "n_params" j) Json.as_int in
  let* tl = Result.bind (Json.field "terms" j) Json.as_list in
  let* terms = Json.map_result term_of_json tl in
  let* repr = Result.bind (Json.field "repr" j) Repr.of_json in
  let* extra =
    match Json.member "extra" j with
    | None | Some Json.Null -> Ok []
    | Some (Json.Obj fields) ->
        Json.map_result
          (fun (name, rj) ->
            match Repr.of_json rj with
            | Ok r -> Ok (name, r)
            | Error e -> Error (Printf.sprintf "extra response %S: %s" name e))
          fields
    | Some _ -> Error "expected an object for field \"extra\""
  in
  if specs = [] then Error "artifact has an empty parameter schema"
  else
    let fits what r =
      Result.map_error (fun e -> what ^ ": " ^ e) (Repr.check ~dims:(List.length specs) r)
    in
    let* () = fits "repr" repr in
    let* _ =
      Json.map_result (fun (name, r) -> fits (Printf.sprintf "extra response %S" name) r) extra
    in
    Ok
      { workload; technique; scale; seed; train_n; test_mape; specs = Array.of_list specs;
        repr; n_params; terms; extra }

let save a path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json a));
      Out_channel.output_char oc '\n')

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.parse s with
      | Error e -> Error (Printf.sprintf "%s: corrupt artifact JSON (%s)" path e)
      | Ok j -> ( match of_json j with Ok a -> Ok a | Error e -> Error (path ^ ": " ^ e)))
