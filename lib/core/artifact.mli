(** Model artifacts: a fitted model's serializable representation bundled
    with everything needed to use it outside the process that trained it —
    the parameter schema (names, admissible levels, log2 coding) for input
    validation and raw→coded conversion, the workload name, the training
    provenance (seed, protocol scale, design size, held-out test MAPE) and a
    format-version header.

    [emc train --out model.json] writes one; [emc predict / rank / search
    --model] and the {!Emc_serve} daemon consume it. Loading is total: a
    missing file, truncated or corrupt JSON, a wrong format header, an
    unsupported version or a malformed repr all come back as [Error] with a
    one-line diagnostic — never an exception. *)

type t = {
  workload : string;
  technique : string;  (** e.g. "rbf-rt(multiquadric)" *)
  scale : string;  (** protocol scale name the training ran at *)
  seed : int;
  train_n : int;  (** training design size *)
  test_mape : float option;  (** held-out test error recorded at training time *)
  specs : Params.spec array;  (** parameter schema, in design-point order *)
  repr : Emc_regress.Repr.t;
  n_params : int;
  terms : (string * float) list;
  extra : (string * Emc_regress.Repr.t) list;
      (** Additional named response models over the same parameter schema
          (e.g. ["energy"], used by the Pareto search). Empty for
          single-response artifacts; the JSON field is omitted when empty,
          so such artifacts are byte-identical to pre-[extra] ones. *)
}

val current_version : int
(** The artifact format version this build reads and writes. *)

val dims : t -> int
(** Arity of a coded design point for this artifact. *)

val of_model :
  workload:string ->
  scale:string ->
  seed:int ->
  train_n:int ->
  ?test_mape:float ->
  ?specs:Params.spec array ->
  ?extra:(string * Emc_regress.Repr.t) list ->
  Emc_regress.Model.t ->
  (t, string) result
(** [Error] when the model carries no serializable repr (stubs, trees).
    [specs] defaults to {!Params.all_specs} (the 25-parameter space);
    [extra] (named additional response reprs) defaults to []. *)

val extra_repr : t -> string -> Emc_regress.Repr.t option
(** Look up an additional named response model, e.g.
    [extra_repr a "energy"]. *)

val model : t -> Emc_regress.Model.t
(** Reconstruct the model. Its [predict] is bit-identical to the fitted
    model the artifact was made from. *)

val validate_point : t -> float array -> (unit, string) result
(** Check a coded point's arity against the schema and that every value is
    finite. *)

val code_raw : t -> float array -> (float array, string) result
(** Map raw parameter values onto the coded [-1,1] space using the
    artifact's own schema. A value with no finite coding (non-finite, or
    not positive in a log2-coded parameter) is an [Error] naming the
    parameter. *)

val to_json : t -> Emc_obs.Json.t

val of_json : Emc_obs.Json.t -> (t, string) result
(** Strict: besides field types, the repr and every extra response must
    fit the schema's arity ({!Emc_regress.Repr.check}), so a loaded
    artifact never raises at evaluation. The error names the response. *)

val save : t -> string -> unit
(** Write the artifact as a single JSON document. *)

val load : string -> (t, string) result
(** Read + parse + {!of_json}. *)
