(* The traced run's span recorder. It lives in the benchmark, not in
   Emc_obs.Trace, so that changes to the program's own tracing cannot
   change how the benchmark measures it. Spans are kept in memory and
   written out once, at exit. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  run : string;  (** one id per workload run *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let run_id = ref ""
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; parent; layer; name; run = !run_id; start = Clock.now ();
        stop = nan }
    in
    incr next_id;
    recorded := s :: !recorded;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Clock.now ();
        stack := List.tl !stack)
  end

(* Run [f] with recording off: the untraced half of a traced run. *)
let paused f =
  let was = !enabled in
  enabled := false;
  Fun.protect f ~finally:(fun () -> enabled := was)

let spans () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time of a span: its duration minus the time its direct children
   cover. One thread records every span and children close before their
   parent, so the covered time is the sum of the children's durations.
   Returned per layer, sorted by layer name. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    spans;
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer [])

let self_time spans layer = Option.value ~default:0.0 (List.assoc_opt layer (self_times spans))

(* Wall clock the trace covers: the sum of the root spans. *)
let wall spans = List.fold_left (fun acc s -> if s.parent < 0 then acc +. duration s else acc) 0.0 spans

let durations spans ~name =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (duration s) else None) spans)

(* Chrome trace-event format ("X" complete events, microseconds). *)
let chrome spans =
  let module J = Emc_obs.Json in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [ ("name", J.Str s.name); ("cat", J.Str s.layer); ("ph", J.Str "X");
             ("ts", J.Float ((s.start -. t0) *. 1e6)); ("dur", J.Float (duration s *. 1e6));
             ("pid", J.Int 1); ("tid", J.Int 1);
             ("args", J.Obj [ ("run", J.Str s.run); ("id", J.Int s.id); ("parent", J.Int s.parent) ]) ])
       spans)
