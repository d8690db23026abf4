(** Zero-dependency process-level parallel map.

    [map f xs] fans the elements of [xs] out across [jobs] forked worker
    processes ({!Proc.spawn} + one pipe per worker + Marshal) and returns the
    results in input order — observationally identical to [Array.map f xs]
    for a pure [f]. Fork-based workers are the safe choice here: the
    process-global metrics registry and the [Measure] memo tables are
    copy-on-write duplicated into each child, so [f] may freely read and
    mutate them without races; child-side mutations are discarded when the
    worker exits and callers merge whatever they need from the returned
    values.

    Workers never run the parent's [at_exit] handlers, and they keep its
    SIGTERM/SIGINT handling. A worker that raises, dies, or exits early
    surfaces as {!Worker_error} in the parent — never a hang. *)

exception Worker_error of string
(** A worker raised, was killed, or exited without reporting results. The
    message names the worker and the reason (the worker-side exception text
    when there was one). *)

val default_jobs : unit -> int
(** The EMC_JOBS environment variable when it is a positive integer;
    1 (sequential) otherwise. Non-integer values log a warning. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] computed by [jobs] forked workers
    (worker [k] takes the indices congruent to [k mod jobs]). [jobs]
    defaults to {!default_jobs}; values [<= 1] (or arrays of [<= 1]
    elements) run sequentially in-process with no fork. Results must be
    marshalable (no closures or custom blocks); raises {!Worker_error} if
    any worker fails. *)
