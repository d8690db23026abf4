exception Worker_error of string

let m_tasks = Emc_obs.Metrics.counter "par.tasks"
let m_workers = Emc_obs.Metrics.counter "par.workers"
let m_maps = Emc_obs.Metrics.counter "par.maps"
let m_failures = Emc_obs.Metrics.counter "par.worker_failures"

let default_jobs () =
  match Sys.getenv_opt "EMC_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ ->
          Emc_obs.Log.warn ~src:"par"
            ~fields:[ ("value", Emc_obs.Json.Str s) ]
            "EMC_JOBS=%s is not a positive integer; running sequentially" s;
          1)

(* Worker [k] owns the strided slice {i | i mod jobs = k}: static assignment
   keeps the task->worker mapping deterministic and needs no work queue. *)
let slice xs jobs k =
  let n = Array.length xs in
  let len = ((n - k - 1) / jobs) + 1 in
  Array.init len (fun j -> xs.(k + (j * jobs)))

let map ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else
    Emc_obs.Trace.with_span ~cat:"par"
      ~args:(fun () ->
        [ ("tasks", Emc_obs.Json.Int n); ("workers", Emc_obs.Json.Int jobs) ])
      "par.map"
    @@ fun () ->
    Emc_obs.Metrics.add m_tasks n;
    Emc_obs.Metrics.add m_workers jobs;
    Emc_obs.Metrics.incr m_maps;
    let spawn k =
      let rfd, wfd = Unix.pipe () in
      (* the child marshals one (Ok results | Error msg) back *)
      let pid =
        Proc.spawn (fun () ->
            Unix.close rfd;
            Emc_obs.Trace.disable ();
            let oc = Unix.out_channel_of_descr wfd in
            let r =
              try Ok (Array.map f (slice xs jobs k)) with e -> Error (Printexc.to_string e)
            in
            Marshal.to_channel oc (r : (_, string) result) [];
            flush oc)
      in
      Unix.close wfd;
      (pid, rfd)
    in
    let children = Array.init jobs spawn in
    let results = Array.make n None in
    let failures = ref [] in
    let fail k fmt = Printf.ksprintf (fun m -> failures := Printf.sprintf "worker %d: %s" k m :: !failures) fmt in
    Array.iteri
      (fun k (pid, rfd) ->
        let ic = Unix.in_channel_of_descr rfd in
        (* reading a worker's pipe to EOF before reaping it cannot deadlock:
           each child is drained in turn, and a blocked child only waits for
           this loop to reach it *)
        Emc_obs.Trace.with_span ~cat:"par"
          ~args:(fun () -> [ ("worker", Emc_obs.Json.Int k) ])
          "par.worker"
          (fun () ->
            (match (Marshal.from_channel ic : (_, string) result) with
            | exception (End_of_file | Failure _) -> fail k "died before reporting results"
            | Ok arr ->
                if Array.length arr <> Array.length (slice xs jobs k) then
                  fail k "reported %d results for %d tasks" (Array.length arr)
                    (Array.length (slice xs jobs k))
                else Array.iteri (fun j v -> results.(k + (j * jobs)) <- Some v) arr
            | Error msg -> fail k "%s" msg);
            close_in ic;
            match Proc.reap [ pid ] with
            | [ (_, Some (Unix.WEXITED c)) ] when c <> 0 -> fail k "exited with code %d" c
            | [ (_, Some (Unix.WSIGNALED s)) ] -> fail k "killed by signal %d" s
            | _ -> ()))
      children;
    (match !failures with
    | [] -> ()
    | msgs ->
        Emc_obs.Metrics.add m_failures (List.length msgs);
        raise (Worker_error (String.concat "; " (List.rev msgs))));
    Array.map (function Some v -> v | None -> raise (Worker_error "missing result")) results
