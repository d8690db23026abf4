(** The result-file format, and the only code that reads or writes it.

    A result file is JSONL: one [{"k":KEY,"v":"0x...p..."}] record per
    measured response, the value a bit-exact [%h] hex float. Three kinds
    of file use it. A [--cache] file and a [--run-id] journal back a
    {!Measure}'s memo under keys signed [SIG#KEY] with the protocol's
    {!Scale.signature}. The fleet store's [--file] keeps bare
    {!Measure.result_key}s. A journal starts with an
    [emc-run-journal/1] header line; any line with a ["schema"] member is
    a header, and headers are skipped by loads.

    A killed writer can leave the last line torn. Every reader counts a
    torn or otherwise malformed line and skips it, and {!open_append}
    terminates a torn tail before anything is appended, so a record is
    never glued onto it. *)

val line : string -> float -> string
(** One record [{"k":KEY,"v":"0x...p..."}], without its newline. *)

val classify : string -> [ `Header | `Entry of string * float | `Malformed ]
(** Sort one line: a schema header, an entry, or malformed. *)

val load : ?prefix:string -> (string, float) Hashtbl.t -> string -> int * int * int
(** [load ?prefix table path] adds the entries of [path] to [table] and
    returns [(loaded, malformed, foreign)]. With [prefix], only keys that
    start with it load, with it stripped; the others count as [foreign].
    A missing file has no lines. *)

val open_append : string -> out_channel
(** Open the append side of a result file, creating it if missing and
    newline-terminating a torn last line first. *)

val append : out_channel -> (string * float) list -> unit
(** Write one record per entry, then flush once. *)

(** {1 Maintenance ([emc cache])} *)

type stats = {
  cs_lines : int;  (** non-blank lines in the file *)
  cs_entries : int;  (** well-formed key/value entries *)
  cs_unique : int;  (** distinct keys *)
  cs_duplicates : int;  (** entries repeating an earlier key *)
  cs_headers : int;  (** schema header lines (run journals) *)
  cs_malformed : int;  (** unparseable lines, the torn tail included *)
  cs_torn : bool;  (** the file ends mid-line (torn trailing write) *)
  cs_top_duplicates : (string * int) list;
      (** keys appearing more than once, by occurrence count descending
          (ties broken by key), capped at ten — the hit-key report *)
}

val stats : string -> stats
(** One read-only pass over a result file. A missing file reports as
    empty. *)

val compact : string -> stats
(** Rewrite the file in place (tmp + rename) keeping schema headers and
    the first occurrence of each key byte-verbatim, dropping duplicates,
    malformed lines, and any torn trailing write. Returns the
    pre-compaction stats. *)

(** {1 Run journals ([--run-id], [emc fleet-resume])} *)

val journal_init : run_id:string -> argv:string array -> string
(** Ensure the journal [EMC_RUN_DIR/<run_id>.jsonl] exists ([EMC_RUN_DIR]
    defaults to ["emc-runs"]): if new, create the directory and write the
    [emc-run-journal/1] header line recording [argv]. Returns its path —
    the run's result file, passed to [Measure.create ?cache_file]. *)

type journal_info = {
  ji_path : string;
  ji_run_id : string;
  ji_argv : string list;  (** argv recorded by the run that created it *)
  ji_entries : int;  (** completed measurements on file *)
  ji_skipped : int;  (** malformed/torn lines *)
}

val journal_info : string -> (journal_info, string) result
(** Read a journal's header and count its records with {!stats}. *)
