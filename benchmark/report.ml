(* The benchmark's result object — the last line a run prints — and the
   [--compare] arithmetic over two sets of saved results. *)

module J = Emc_obs.Json

type metric = { name : string; value : float; unit_ : string }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let to_json r =
  J.Obj
    [ ("correct", J.Bool r.correct); ("attempted", J.Int r.attempted); ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
             r.metrics) ) ]

(* JSON has one number type; integral floats print without a point and
   read back as [Int]. *)
let number = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None

let of_json j =
  let ( let* ) = Option.bind in
  let int k = match J.member k j with Some (J.Int i) -> Some i | _ -> None in
  let metric (name, m) =
    let* value = Option.bind (J.member "value" m) number in
    let* unit_ = match J.member "unit" m with Some (J.Str u) -> Some u | _ -> None in
    Some { name; value; unit_ }
  in
  let parsed =
    let* correct = match J.member "correct" j with Some (J.Bool b) -> Some b | _ -> None in
    let* attempted = int "attempted" in
    let* failed = int "failed" in
    let* ms = match J.member "metrics" j with Some (J.Obj ms) -> Some ms | _ -> None in
    let metrics = List.filter_map metric ms in
    if List.length metrics <> List.length ms then None
    else Some { correct; attempted; failed; metrics }
  in
  Option.to_result ~none:"not a benchmark result object" parsed

(* One saved run, as [--json FILE] appends it. *)
type record = { workload : string; seed : int; traced : bool; result : t }

let record_to_json r =
  J.Obj
    [ ("workload", J.Str r.workload); ("seed", J.Int r.seed); ("trace", J.Bool r.traced);
      ("result", to_json r.result) ]

let record_of_json j =
  match (J.member "workload" j, J.member "seed" j, J.member "trace" j, J.member "result" j) with
  | Some (J.Str workload), Some (J.Int seed), Some (J.Bool traced), Some res ->
      Result.map (fun result -> { workload; seed; traced; result }) (of_json res)
  | _ -> Error "not a benchmark record"

(* ---------------- --compare ---------------- *)

type spec = { s_name : string; s_unit : string; lower_better : bool; bound : float option }

(* The metric declarations under [key] ("end_to_end" or "per_layer") of
   BENCHMARK.json. *)
let specs_of_benchmark j key =
  let decls = match J.member key j with Some (J.List l) -> l | _ -> [] in
  List.filter_map
    (fun m ->
      match (J.member "name" m, J.member "unit" m, J.member "better" m) with
      | Some (J.Str s_name), Some (J.Str s_unit), Some (J.Str better) ->
          Some
            { s_name; s_unit; lower_better = better = "lower";
              bound = Option.bind (J.member "bound" m) number }
      | _ -> None)
    decls

(* How much worse [b] is than [a], as a share of [a]; negative when better. *)
let worsening spec ~a ~b = (if spec.lower_better then b -. a else a -. b) /. Float.abs a

type row = {
  r_workload : string;
  r_spec : spec;
  a : float list;
  b : float list;
  regressed : bool;  (** B's median worse than A's by more than the bound *)
}

let compare_sets specs (sa : record list) (sb : record list) =
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (sa @ sb))
  in
  let values set w name =
    List.filter_map
      (fun r ->
        if r.workload <> w then None
        else
          List.find_map
            (fun m -> if m.name = name then Some m.value else None)
            r.result.metrics)
      set
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun spec ->
          match (values sa w spec.s_name, values sb w spec.s_name) with
          | [], _ | _, [] -> None
          | a, b ->
              let regressed =
                match spec.bound with
                | Some bound -> worsening spec ~a:(Stat.median a) ~b:(Stat.median b) > bound
                | None -> false
              in
              Some { r_workload = w; r_spec = spec; a; b; regressed })
        specs)
    workloads
