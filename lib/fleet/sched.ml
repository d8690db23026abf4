(* The coordinator's scheduler: every decision of one batch, with no I/O;
   time enters only through [~now]. See Fleet.Sched in fleet.mli. *)

open Emc_core
module Json = Emc_obs.Json
module Log = Emc_obs.Log
module Metrics = Emc_obs.Metrics

exception Fleet_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fleet_error msg)) fmt

let m_dispatched = Metrics.counter "fleet.dispatched"
let m_points = Metrics.counter "fleet.points_dispatched"
let m_retried = Metrics.counter "fleet.retried"
let m_failures = Metrics.counter "fleet.worker_failures"
let m_steals = Metrics.counter "fleet.steals"
let m_joined = Metrics.counter "fleet.workers_joined"
let m_lost = Metrics.counter "fleet.workers_lost"

(* The scheduler's constants, as fleet.mli's Sched section describes them *)
let read_timeout = 600.0
let steal_after = 30.0
let max_attempts = 3
let poll_interval = 1.0

(* Fixed-slice chunk plan over [n] work items: (start, length) slices in
   order, every index covered exactly once, no empty chunks, for every
   degenerate shape — n smaller than the worker count, n = 1, a requested
   chunk size larger than n. [chunk = 0] sizes automatically: ~4 chunks
   per worker bounds the straggler tail without drowning small batches in
   per-request overhead. A negative chunk is a caller bug, loudly. *)
let chunk_plan ~chunk ~nworkers ~n =
  if chunk < 0 then fail "chunk size must be positive, not %d (0 = auto)" chunk;
  if n < 0 then fail "negative work array length %d" n;
  if n = 0 then []
  else begin
    let nworkers = max 1 nworkers in
    let csize =
      if chunk > 0 then chunk
      else max 1 (min 32 ((n + (4 * nworkers) - 1) / (4 * nworkers)))
    in
    List.init ((n + csize - 1) / csize) (fun i ->
        let start = i * csize in
        (start, min csize (n - start)))
  end

type chunk = {
  size : int;  (** design points *)
  mutable finished : bool;
  mutable attempts : int;  (** dispatches so far (retries + steals included) *)
  mutable running : int;  (** live dispatches (2 while a steal races the original) *)
}

type worker = {
  key : string;  (** the worker's address, as the driver prints it *)
  from_members : bool;  (** discovered via a membership poll, not --fleet *)
  inflight : int Queue.t;  (** pipelined chunk ids, in response order *)
  mutable started : float;
      (** when the head of [inflight] started running: at dispatch onto an
          empty pipeline, else at promotion to the head. A request queued
          behind a long chunk is not running yet, and timing it from
          dispatch would fail healthy workers under head-of-line blocking *)
  mutable dead : bool;
}

type event =
  | Members of string list * bool
  | Completed of string * Measure.triple array
  | Failed of string * string

type action = Send of string * int | Close of string | Put of int * Measure.triple array | Poll

type t = {
  depth : int;
  elastic : bool;
  mutable workers : worker list;  (** every worker ever known, in join order *)
  mutable chunks : chunk array;
  pending : int Queue.t;
  actions : action Queue.t;  (** decided, not yet taken by [next] *)
  mutable completed : int;
  mutable next_poll : float;
  mutable empty_since : float option;
}

(* Never revive an address within a batch: a worker that failed and
   re-registered before the next poll would silently burn the retry
   budget of every chunk it keeps failing. *)
let join t ~from_members key =
  if not (List.exists (fun w -> w.key = key) t.workers) then begin
    let w = { key; from_members; inflight = Queue.create (); started = 0.0; dead = false } in
    t.workers <- t.workers @ [ w ];
    if from_members then begin
      Metrics.incr m_joined;
      Log.info ~src:"fleet" ~fields:[ ("worker", Json.Str key) ] "worker %s joined" key
    end
  end

let create ~depth ~elastic keys =
  let t =
    { depth; elastic; workers = []; chunks = [||];
      pending = Queue.create (); actions = Queue.create (); completed = 0;
      next_poll = infinity; empty_since = None }
  in
  List.iter (join t ~from_members:false) keys;
  t

let live t = List.filter (fun w -> not w.dead) t.workers

let plan t ~now ~chunk n =
  let plan = chunk_plan ~chunk ~nworkers:(List.length (live t)) ~n in
  t.chunks <-
    Array.of_list
      (List.map (fun (_, size) -> { size; finished = false; attempts = 0; running = 0 }) plan);
  Array.iteri (fun id _ -> Queue.push id t.pending) t.chunks;
  t.next_poll <- now +. poll_interval;
  plan

let finished t = t.completed = Array.length t.chunks

let find t key = List.find_opt (fun w -> w.key = key && not w.dead) t.workers

let head t key = Option.bind (find t key) (fun w -> Queue.peek_opt w.inflight)

(* The whole pipeline dies with the connection: responses are matched to
   dispatches by queue order, so nothing behind a failure is trustworthy.
   Each chunk requeues only when no twin is racing; if the twin later
   fails too, it requeues then. *)
let fail_worker t w reason =
  Log.warn ~src:"fleet" ~fields:[ ("worker", Json.Str w.key) ] "worker %s failed: %s" w.key reason;
  w.dead <- true;
  Metrics.incr m_failures;
  Queue.push (Close w.key) t.actions;
  Queue.iter
    (fun id ->
      let c = t.chunks.(id) in
      c.running <- c.running - 1;
      if (not c.finished) && c.running = 0 then begin
        if c.attempts >= max_attempts then
          fail "chunk %d failed %d times (last worker: %s: %s); giving up" id c.attempts w.key
            reason;
        Metrics.incr m_retried;
        Queue.push id t.pending
      end)
    w.inflight;
  Queue.clear w.inflight

let handle t ~now = function
  | Completed (key, triples) -> (
      match find t key with
      | Some w when not (Queue.is_empty w.inflight) ->
          let id = Queue.pop w.inflight in
          let c = t.chunks.(id) in
          c.running <- c.running - 1;
          w.started <- now;
          (* first completion wins; a stolen twin's duplicate is identical
             (deterministic simulator) and discarded *)
          if not c.finished then begin
            c.finished <- true;
            t.completed <- t.completed + 1;
            Queue.push (Put (id, triples)) t.actions
          end
      | _ -> ())
  | Failed (key, reason) -> Option.iter (fun w -> fail_worker t w reason) (find t key)
  | Members (addrs, complete) ->
      (* a failed poll detects no leave: a flaky store must not look like
         a mass worker death. Static --fleet workers never leave *)
      List.iter (join t ~from_members:true) addrs;
      if complete then
        List.iter
          (fun w ->
            if w.from_members && (not w.dead) && not (List.mem w.key addrs) then begin
              Metrics.incr m_lost;
              fail_worker t w "deregistered or aged out of membership"
            end)
          t.workers;
      t.next_poll <- now +. poll_interval

let dispatch t ~now w id =
  let c = t.chunks.(id) in
  c.attempts <- c.attempts + 1;
  c.running <- c.running + 1;
  if Queue.is_empty w.inflight then w.started <- now;
  Queue.push id w.inflight;
  Metrics.incr m_dispatched;
  Metrics.add m_points c.size;
  Send (w.key, id)

(* The oldest head chunk running past the straggler threshold without a
   twin. *)
let straggler t ~now live =
  List.filter
    (fun w ->
      match Queue.peek_opt w.inflight with
      | Some id ->
          let c = t.chunks.(id) in
          (not c.finished) && c.running = 1 && now >= w.started +. steal_after
      | None -> false)
    live
  |> List.stable_sort (fun a b -> compare a.started b.started)
  |> List.find_map (fun w -> Queue.peek_opt w.inflight)

let rec next t ~now =
  let live = live t in
  let total = Array.length t.chunks in
  if not (Queue.is_empty t.actions) then Some (Queue.pop t.actions)
  else if finished t then None
  else if t.elastic && now >= t.next_poll then begin
    t.next_poll <- infinity;
    Some Poll
  end
  else
    match
      List.find_opt
        (fun w -> (not (Queue.is_empty w.inflight)) && now >= w.started +. read_timeout)
        live
    with
    | Some w ->
        fail_worker t w (Printf.sprintf "no response in %.0fs" read_timeout);
        next t ~now
    | None when live = [] ->
        if not t.elastic then
          fail "all %d fleet workers failed with %d/%d chunks incomplete"
            (List.length t.workers) (total - t.completed) total;
        (* an elastic fleet may be momentarily empty (scale-down before
           scale-up); wait for a join, but not forever *)
        (match t.empty_since with
        | None -> t.empty_since <- Some now
        | Some t0 when now -. t0 > read_timeout ->
            fail "no live fleet workers for %.0fs with %d/%d chunks incomplete" (now -. t0)
              (total - t.completed) total
        | Some _ -> ());
        None
    | None -> (
        t.empty_since <- None;
        (* fill pipelines up to depth in worker order; with the queue
           drained, an idle worker steals the oldest straggler *)
        match
          ( List.find_opt (fun w -> Queue.length w.inflight < t.depth) live,
            List.find_opt (fun w -> Queue.is_empty w.inflight) live )
        with
        | Some w, _ when not (Queue.is_empty t.pending) ->
            Some (dispatch t ~now w (Queue.pop t.pending))
        | _, Some idle when Queue.is_empty t.pending ->
            Option.map
              (fun id ->
                Metrics.incr m_steals;
                Log.info ~src:"fleet"
                  ~fields:[ ("chunk", Json.Int id); ("worker", Json.Str idle.key) ]
                  "stealing chunk %d onto %s" id idle.key;
                dispatch t ~now idle id)
              (straggler t ~now live)
        | _ -> None)

(* A due event that cannot fire (a steal timer with no idle worker)
   drops out of the candidates rather than clamping every sleep to near
   zero. *)
let wake t ~now =
  let cands =
    (if t.elastic then [ t.next_poll ] else [])
    @ List.concat_map
        (fun w ->
          if Queue.is_empty w.inflight then []
          else [ w.started +. read_timeout; w.started +. steal_after ])
        (live t)
  in
  match (cands, List.filter (fun at -> at > now) cands) with
  | [], _ -> 60.0
  | _, [] -> 0.05
  | _, future -> min 60.0 (max 0.001 (List.fold_left min infinity future -. now))
