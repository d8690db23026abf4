(** Linear regression with two-factor interactions (paper §4.1,
    Equation 2): [y = β0 + Σ βi xi + Σ Σ βij xi xj], fitted by
    ridge-stabilized least squares on the standardized response. With the
    paper's 25 predictors the interaction model has 351 columns, so the
    400-point designs keep it overdetermined; on smaller designs the tiny
    ridge keeps it well-posed instead of exploding. *)

val feature_names : interactions:bool -> string array -> string array

val fit : ?interactions:bool -> ?names:string array -> Dataset.t -> Model.t
(** [interactions] defaults to [true] (the paper's model). The returned
    model's [terms] carry the coefficients in response units. *)
