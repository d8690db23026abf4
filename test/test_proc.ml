(** The process lifecycle: a spawned child's exit rule, the stop flag a
    child inherits, the reap's bound and statuses, and drain's refusals.
    Every [catch_stop] here runs in a spawned child, never in the test
    runner, so SIGINT still stops the suite. *)

module Proc = Emc_par.Proc

let cb = Alcotest.(check bool)

let temp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "emc_proc_%s_%d_%d" name (Unix.getpid ()) (Random.int 1_000_000))

(* A raising body ends its child with exit 2; the child runs neither the
   caller's code after [spawn] nor an [at_exit] handler, either of which
   would write the marker. *)
let test_spawn_raise () =
  let marker = temp "marker" in
  let self = Unix.getpid () in
  let write what = Out_channel.with_open_text marker (fun oc -> output_string oc what) in
  let pid =
    Proc.spawn (fun () ->
        at_exit (fun () -> write "at_exit");
        failwith "raised on purpose")
  in
  if Unix.getpid () <> self then begin
    write "caller";
    Unix._exit 0
  end;
  let status = Proc.reap [ pid ] in
  let marked = Sys.file_exists marker in
  if marked then Sys.remove marker;
  cb "exit 2" true (status = [ (pid, Some (Unix.WEXITED 2)) ]);
  cb "no caller code and no at_exit in the child" false marked

(* A child spawned after [catch_stop] and sent SIGTERM at once, perhaps
   before it runs a line, records the signal in the flag it inherited and
   leaves through its own code with exit 0, not by the signal. *)
let test_inherited_flag () =
  let pid =
    Proc.spawn (fun () ->
        Proc.catch_stop ();
        let child =
          Proc.spawn (fun () ->
              let deadline = Unix.gettimeofday () +. 10.0 in
              while not (Proc.stopping ()) do
                if Unix.gettimeofday () > deadline then failwith "no stop flag after 10 s";
                try ignore (Unix.select [] [] [] 0.01) with Unix.Unix_error (Unix.EINTR, _, _) -> ()
              done)
        in
        Unix.kill child Sys.sigterm;
        if Proc.reap [ child ] <> [ (child, Some (Unix.WEXITED 0)) ] then
          failwith "the child did not leave through its flag")
  in
  cb "left through the flag" true (Proc.reap [ pid ] = [ (pid, Some (Unix.WEXITED 0)) ])

(* The wait ends at [until] and at the bound with the child unreaped; a
   signalled child reports its signal; a pid reaped already counts as
   gone once no process has it, with a bound or without. *)
let test_reap () =
  let pid = Proc.spawn (fun () -> Unix.sleepf 10.0) in
  cb "until ends the wait" true (Proc.reap ~until:(fun () -> true) [ pid ] = []);
  let t0 = Unix.gettimeofday () in
  cb "running at the bound" true (Proc.reap ~timeout:0.05 [ pid ] = []);
  cb "the bound holds" true (Unix.gettimeofday () -. t0 < 1.0);
  Unix.kill pid Sys.sigkill;
  cb "killed by SIGKILL" true (Proc.reap [ pid ] = [ (pid, Some (Unix.WSIGNALED Sys.sigkill)) ]);
  cb "reaped already: gone" true (Proc.reap ~timeout:5.0 [ pid ] = [ (pid, None) ]);
  cb "reaped already, no bound: gone" true (Proc.reap [ pid ] = [ (pid, None) ])

(* A missing pidfile, a pid that is malformed or below 1 (0 and -1 would
   signal a whole process group) and a stale pid are errors, and nothing
   is signalled: this process is still here to check. *)
let test_drain_refuses () =
  let pidfile = temp "pid" in
  let drain_with text =
    Out_channel.with_open_text pidfile (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove pidfile) (Proc.drain ~timeout:1.0 ~pidfile)
  in
  let refused prefix = function
    | Error e -> String.starts_with ~prefix e
    | Ok _ -> false
  in
  cb "missing" true (refused "no worker pidfile" (Proc.drain ~pidfile ()));
  List.iter
    (fun text -> cb (Printf.sprintf "%S malformed" text) true (refused pidfile (drain_with text)))
    [ "0\n"; "-1\n"; "x\n"; "" ];
  let pid = Proc.spawn ignore in
  ignore (Proc.reap [ pid ]);
  cb "stale" true
    (refused (Printf.sprintf "no such process %d" pid) (drain_with (Printf.sprintf "%d\n" pid)))

let suite =
  [
    ("a raising child exits 2, running no caller code", `Quick, test_spawn_raise);
    ("a child inherits the stop flag", `Quick, test_inherited_flag);
    ("reap: until, bound, statuses, gone pids", `Quick, test_reap);
    ("drain refuses missing, malformed, stale pids", `Quick, test_drain_refuses);
  ]
