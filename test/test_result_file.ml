(* Result files (lib/core/result_file.ml) replayed after a kill: the last
   write is cut at every byte offset, and each cut file is read, loaded
   and appended to. *)

open Emc_core

let prefix = Scale.signature Scale.tiny ^ "#"

(* The same float: bit for bit, or a NaN of the same sign (%h prints
   every NaN as nan or -nan). *)
let same f g =
  if Float.is_nan f then Float.is_nan g && Float.sign_bit f = Float.sign_bit g
  else Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)

(* Records under distinct keys, signed or bare, whose text needs JSON
   escapes; ordinary floats and -0, the smallest subnormal, max_float,
   +-infinity and NaNs of either sign. Some files start with a journal
   header. *)
let gen =
  let open QCheck2.Gen in
  let special =
    [ -0.0; 4e-324; Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
      Float.neg Float.nan ]
  in
  let value = frequency [ (3, float); (1, oneofl special) ] in
  let text = string_size ~gen:(oneofl [ 'a'; 'z'; '|'; '#'; '"'; '\\'; '\n'; ' ' ]) (int_range 0 8) in
  pair bool (list_size (int_range 1 6) (triple bool text value))

(* Cut the file inside its last record, at every offset from its first
   byte to its whole text without the newline. A cut record is the one
   malformed line; a whole one loads. Either way the file is torn, every
   whole record loads with its bits, a signed load takes exactly the
   signed ones, and the next append starts on a fresh line, after which
   every record loads. *)
let prop_replay_after_kill =
  QCheck2.Test.make ~name:"replay after a kill at every byte offset of the last write" ~count:60
    gen (fun (header, drawn) ->
      let records =
        List.mapi
          (fun i (signed, text, v) ->
            ((if signed then prefix else "") ^ Printf.sprintf "%d|%s" i text, v))
          drawn
      in
      let n = List.length records in
      let last_k, last_v = List.nth records (n - 1) in
      let last = Result_file.line last_k last_v in
      let body =
        (if header then "{\"schema\":\"emc-run-journal/1\",\"run_id\":\"r\",\"argv\":[]}\n" else "")
        ^ String.concat "" (List.map (fun (k, v) -> Result_file.line k v ^ "\n") records)
      in
      let start = String.length body - String.length last - 1 in
      let path = Filename.temp_file "emc_replay" ".jsonl" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
      for cut = start + 1 to start + String.length last do
        let expect what ok =
          if not ok then
            QCheck2.Test.fail_reportf "cut at byte %d of the last record (%d bytes): %s"
              (cut - start) (String.length last) what
        in
        Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub body 0 cut));
        let torn = if cut < start + String.length last then 1 else 0 in
        let whole = List.filteri (fun i _ -> i < n - torn) records in
        let loads ?prefix expected =
          let table = Hashtbl.create 16 in
          let loaded, malformed, foreign = Result_file.load ?prefix table path in
          loaded = List.length expected
          && malformed = torn
          && foreign = List.length whole - List.length expected
          && List.for_all
               (fun (k, v) ->
                 let k =
                   match prefix with
                   | Some p -> String.sub k (String.length p) (String.length k - String.length p)
                   | None -> k
                 in
                 match Hashtbl.find_opt table k with Some got -> same got v | None -> false)
               expected
        in
        let st = Result_file.stats path in
        expect "stats see one malformed line per cut record" (st.Result_file.cs_malformed = torn);
        expect "stats see the torn tail" st.Result_file.cs_torn;
        expect "stats count every whole record" (st.Result_file.cs_entries = List.length whole);
        expect "the loader returns every whole record" (loads whole);
        expect "a signed load returns the signed whole records"
          (loads ~prefix (List.filter (fun (k, _) -> String.starts_with ~prefix k) whole));
        let oc = Result_file.open_append path in
        Result_file.append oc [ (last_k, last_v) ];
        close_out oc;
        let st = Result_file.stats path in
        expect "the append ends the tear" (not st.Result_file.cs_torn);
        expect "the append glued onto nothing" (st.Result_file.cs_malformed = torn);
        expect "after the append every record loads"
          (let table = Hashtbl.create 16 in
           let loaded, _, _ = Result_file.load table path in
           loaded = List.length whole + 1
           && List.for_all
                (fun (k, v) ->
                  match Hashtbl.find_opt table k with Some got -> same got v | None -> false)
                records)
      done;
      true)

let suite = [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) prop_replay_after_kill ]
