(** The result-file format and every reader and writer of it (see
    result_file.mli). *)

module Json = Emc_obs.Json

(* The value is a hex float literal (%h) rather than a JSON number:
   decimal printing is lossy and a warm re-run must reproduce datasets
   bit for bit. *)
let line key v = Json.to_string (Json.Obj [ ("k", Json.Str key); ("v", Json.hex v) ])

(* Header lines ({"schema":...}) are structural, not entries: skipped
   silently so a run journal doubles as a result cache. *)
let classify line =
  match Json.parse line with
  | Error _ -> `Malformed
  | Ok j -> (
      if Json.member "schema" j <> None then `Header
      else
        match (Json.member "k" j, Json.member "v" j) with
        | Some (Json.Str k), Some v -> (
            match Json.hex_of v with Some f -> `Entry (k, f) | None -> `Malformed)
        | _ -> `Malformed)

(* A killed run can leave the last line torn mid-write (no trailing
   newline). Reads treat it like any other malformed line; the append
   side must also know, or the next record would be glued onto it. *)
let ends_with_newline path =
  match open_in_bin path with
  | exception Sys_error _ -> true
  | ic ->
      let len = in_channel_length ic in
      let r =
        len = 0
        ||
        (seek_in ic (len - 1);
         match input_char ic with '\n' -> true | _ | (exception End_of_file) -> false)
      in
      close_in ic;
      r

(* Every non-blank line of a file, in order; a missing file has none. *)
let iter_lines path f =
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then f line
       done
     with End_of_file -> ());
    close_in ic
  end

let load ?(prefix = "") results path =
  let n = String.length prefix in
  let loaded = ref 0 and bad = ref 0 and foreign = ref 0 in
  iter_lines path (fun line ->
      match classify line with
      | `Entry (k, v) when String.starts_with ~prefix k ->
          Hashtbl.replace results (if n = 0 then k else String.sub k n (String.length k - n)) v;
          incr loaded
      | `Entry _ -> incr foreign
      | `Header -> ()
      | `Malformed -> incr bad);
  (!loaded, !bad, !foreign)

let open_append path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if not (ends_with_newline path) then begin
    Emc_obs.Log.warn ~src:"measure"
      ~fields:[ ("file", Json.Str path) ]
      "%s ends mid-line (torn write from a killed run); terminating it before appending" path;
    output_char oc '\n';
    flush oc
  end;
  oc

let append oc entries =
  List.iter
    (fun (k, v) ->
      output_string oc (line k v);
      output_char oc '\n')
    entries;
  flush oc

(* ---------------- maintenance (emc cache) ---------------- *)

type stats = {
  cs_lines : int;
  cs_entries : int;
  cs_unique : int;
  cs_duplicates : int;
  cs_headers : int;
  cs_malformed : int;
  cs_torn : bool;
  cs_top_duplicates : (string * int) list;
}

(* One streaming pass shared by report and compact. [emit] sees every line
   that a compacted file keeps, verbatim: schema headers and the first
   occurrence of each key. *)
let scan emit path =
  let seen = Hashtbl.create 1024 in
  let lines = ref 0 and entries = ref 0 and dups = ref 0 in
  let headers = ref 0 and malformed = ref 0 in
  iter_lines path (fun line ->
      incr lines;
      match classify line with
      | `Header ->
          incr headers;
          emit line
      | `Malformed -> incr malformed
      | `Entry (k, _) -> (
          incr entries;
          match Hashtbl.find_opt seen k with
          | None ->
              Hashtbl.add seen k 1;
              emit line
          | Some n ->
              Hashtbl.replace seen k (n + 1);
              incr dups));
  let top =
    Hashtbl.fold (fun k n acc -> if n > 1 then (k, n) :: acc else acc) seen []
    |> List.sort (fun (k1, n1) (k2, n2) -> if n1 <> n2 then compare n2 n1 else compare k1 k2)
    |> List.filteri (fun i _ -> i < 10)
  in
  { cs_lines = !lines; cs_entries = !entries; cs_unique = Hashtbl.length seen;
    cs_duplicates = !dups; cs_headers = !headers; cs_malformed = !malformed;
    cs_torn = Sys.file_exists path && not (ends_with_newline path);
    cs_top_duplicates = top }

let stats path = scan ignore path

(* Keep headers and the first occurrence of each key, byte-verbatim (the
   simulator is deterministic, so duplicate keys carry identical values;
   first-wins is the deterministic policy regardless). tmp + rename in the
   same directory, so a concurrent reader never sees a half-written file. *)
let compact path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".compact" in
  let oc = open_out tmp in
  let stats =
    scan
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      path
  in
  close_out oc;
  Sys.rename tmp path;
  stats

(* ---------------- run journals ---------------- *)

let journal_schema = "emc-run-journal/1"

let run_dir () =
  match Sys.getenv_opt "EMC_RUN_DIR" with Some d when d <> "" -> d | _ -> "emc-runs"

let journal_path run_id = Filename.concat (run_dir ()) (run_id ^ ".jsonl")

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_init ~run_id ~argv =
  mkdir_p (run_dir ());
  let path = journal_path run_id in
  if not (Sys.file_exists path) then begin
    let oc = open_out path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("schema", Json.Str journal_schema); ("run_id", Json.Str run_id);
              ("argv", Json.List (List.map (fun s -> Json.Str s) (Array.to_list argv)));
              ("started", Json.Float (Unix.time ())) ]));
    output_char oc '\n';
    close_out oc
  end;
  path

type journal_info = {
  ji_path : string;
  ji_run_id : string;
  ji_argv : string list;
  ji_entries : int;
  ji_skipped : int;
}

let journal_info run_id =
  let ( let* ) = Result.bind in
  let path = journal_path run_id in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no journal at %s (known runs live under %s/)" path (run_dir ()))
  else begin
    let header =
      let line = In_channel.with_open_text path In_channel.input_line in
      let* j = Json.parse (Option.value ~default:"" line) in
      let* schema = Json.get "schema" Json.as_str j in
      let* () =
        if schema = journal_schema then Ok ()
        else Error (Printf.sprintf "unsupported schema %S" schema)
      in
      let* id = Json.get "run_id" Json.as_str j in
      let* argv = Json.get "argv" Json.as_list j in
      Ok (id, List.filter_map (fun a -> Result.to_option (Json.as_str a)) argv)
    in
    let* ji_run_id, ji_argv =
      Result.map_error (Printf.sprintf "%s: not an emc-run-journal header (%s)" path) header
    in
    let st = stats path in
    Ok { ji_path = path; ji_run_id; ji_argv; ji_entries = st.cs_entries;
         ji_skipped = st.cs_malformed }
  end
