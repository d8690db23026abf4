(** Process lifecycle: the stop flag, spawn, reap, pidfile and drain (see
    proc.mli). *)

let stop = ref false

let catch_stop () =
  let set = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm set;
  Sys.set_signal Sys.sigint set

let stopping () = !stop

let spawn body =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      try
        body ();
        Unix._exit 0
      with e ->
        let e = Printexc.to_string e in
        (try Emc_obs.Log.err ~src:"proc" "child %d raised: %s" (Unix.getpid ()) e with _ -> ());
        Unix._exit 2)
  | pid -> pid

let no_such_process pid =
  match Unix.kill pid 0 with () -> false | exception Unix.Unix_error (e, _, _) -> e = Unix.ESRCH

(* Only [waitpid] tells a child's end (a zombie answers [kill pid 0]);
   [gone] decides for a pid that is not the caller's child (ECHILD).
   With [flags = []], [waitpid] itself waits for a child. *)
let rec wait ?(flags = [ Unix.WNOHANG ]) ~deadline ~until ~gone pause ended pids =
  let poll (ended, running) pid =
    match Unix.waitpid flags pid with
    | 0, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> (ended, pid :: running)
    | _, status -> ((pid, Some status) :: ended, running)
    | exception Unix.Unix_error _ when gone pid -> ((pid, None) :: ended, running)
    | exception Unix.Unix_error _ -> (ended, pid :: running)
  in
  let ended, running = List.fold_left poll (ended, []) pids in
  let left = deadline -. Unix.gettimeofday () in
  if running = [] || until () || left <= 0.0 then ended
  else begin
    (try ignore (Unix.select [] [] [] (Float.min pause left))
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    wait ~flags ~deadline ~until ~gone (Float.min 0.1 (2.0 *. pause)) ended running
  end

let reap ?timeout ?until pids =
  let flags = if Option.is_none timeout && Option.is_none until then [] else [ Unix.WNOHANG ] in
  let deadline = Unix.gettimeofday () +. Option.value timeout ~default:infinity in
  let until = Option.value until ~default:(Fun.const false) in
  wait ~flags ~deadline ~until ~gone:no_such_process 0.001 [] pids

let terminate pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  ignore (reap pids)

let write_pidfile path =
  Out_channel.with_open_text path (fun oc -> Printf.fprintf oc "%d\n" (Unix.getpid ()))

let remove_pidfile path = try Sys.remove path with Sys_error _ -> ()

let drain ?(timeout = 120.0) ~pidfile () =
  match In_channel.with_open_text pidfile In_channel.input_line with
  | exception Sys_error e -> Error ("no worker pidfile: " ^ e)
  | line -> (
      let line = Option.value ~default:"" line in
      match int_of_string_opt (String.trim line) with
      | Some pid when pid > 0 -> (
          match Unix.kill pid Sys.sigterm with
          | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
              Error (Printf.sprintf "no such process %d (stale pidfile %s)" pid pidfile)
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "kill %d: %s" pid (Unix.error_message e))
          | () ->
              let gone pid = (not (Sys.file_exists pidfile)) || no_such_process pid in
              let deadline = Unix.gettimeofday () +. timeout in
              if wait ~deadline ~until:(Fun.const false) ~gone 0.001 [] [ pid ] = [] then
                Error (Printf.sprintf "worker %d still running after %.0fs" pid timeout)
              else Ok pid)
      | _ -> Error (Printf.sprintf "%s: malformed pid %S" pidfile line))
