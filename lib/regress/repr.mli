(** Structured, serializable representations of fitted models.

    Every family returned by {!Linear.fit}, {!Mars.fit} and {!Rbf.fit} is a
    closed-form expression over its coefficients; [Repr.t] spells that
    expression out as data so a trained model can leave the process that fit
    it — saved to an artifact file, reloaded elsewhere, and served — while
    {!eval} reproduces the fitted closure {e bit for bit} (the fit functions
    build their returned [predict] as [eval repr], so there is exactly one
    evaluation code path).

    JSON round-trips ({!to_json} / {!of_json}) carry every float as a hex
    literal ([%h]), the same convention as the persistent measurement cache,
    so serialization never loses a bit. *)

type factor = { dim : int; knot : float; positive : bool }
(** One hinge [max(0, ±(x.(dim) − knot))] of a MARS basis function. *)

type kernel = Gaussian | Multiquadric | InverseMultiquadric

type t =
  | Linear of { interactions : bool; beta : float array; mu : float; sd : float }
      (** Least-squares coefficients over the {!expand} feature row, fitted
          on the standardized response [(y − mu) / sd]. *)
  | Mars of { bases : factor list array; weights : float array; mu : float; sd : float }
      (** Basis functions (products of hinges; [[]] is the intercept) with
          their weights, on the standardized response. *)
  | Rbf of {
      kernel : kernel;
      centers : float array array;
      radii : float array;
      weights : float array;  (** [weights.(0)] is the bias; [weights.(j+1)] pairs with [centers.(j)] *)
      mu : float;
      sd : float;
    }
  | Rank of { interactions : bool; beta : float array }
      (** {!Rank.fit}'s pairwise ranking scorer: a {e unitless} score over
          the same {!expand} feature row as [Linear], without response
          standardization — only the induced order of design points is
          meaningful, not the magnitude. *)
  | Clamp of { lo : float; hi : float; body : t }
      (** {!Emc_core.Modeling.fit}'s response-envelope clamp. *)

val family : t -> string
(** ["linear"], ["mars"], ["rbf"], ["rank"] or the clamped body's
    family. *)

val kernel_name : kernel -> string

(** {2 Shared evaluation kernels}

    The single implementation used both when fitting (building design
    matrices) and when evaluating a loaded artifact — keeping them one
    function is what makes the bit-for-bit guarantee hold by construction. *)

val n_features : interactions:bool -> int -> int

val expand : interactions:bool -> float array -> float array
(** Linear model row: intercept, main effects, and (optionally) all
    products [xi*xj] with [i <= j]. *)

val eval_kernel : kernel -> r:float -> float -> float
(** [eval_kernel k ~r d2] at squared distance [d2] with radius [r]. *)

val dist2 : float array -> float array -> float

val eval : t -> float array -> float
(** The one evaluator. [eval r] resolves the representation dispatch and
    allocates the feature scratch once; [eval r x] then evaluates a coded
    design point, bit-identical to the [predict] of the model the repr
    was extracted from. Stage it once ([let predict = eval r]) and call it
    per point: the closure reuses its scratch, so it must not be shared
    between concurrent evaluators. The point's arity must match the repr
    (callers validate against the artifact's parameter schema). *)

val check : dims:int -> t -> (unit, string) result
(** Does the repr fit [dims]-dimensional points? A linear or rank [beta]
    has [n_features ~interactions dims] coefficients, every MARS hinge
    is on a dimension in [0 .. dims-1], every RBF center has [dims]
    coordinates, and a [Clamp] checks its body. The error names the
    family and the mismatch. *)

(** {2 JSON round-trip} *)

val to_json : t -> Emc_obs.Json.t

val of_json : Emc_obs.Json.t -> (t, string) result
(** Strict: unknown families, missing fields, malformed floats and
    mismatched coefficient counts are [Error]s, never exceptions. *)
