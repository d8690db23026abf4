(* A closed-loop HTTP client: each connection has at most one request in
   flight and sends the next one only when the reply has arrived — the
   shape of an autotuner waiting on /predict, or of a fleet worker calling
   its store. One process drives every connection through select(), so
   all the load comes from a single client process. *)

module Http = Emc_serve.Http

type 'a request = { bytes : string; tag : 'a }

type 'a outcome = {
  conn : int;
  tag : 'a;
  latency : float;  (** seconds from connect (or send, on a reused connection) to the whole reply *)
  connect : float;  (** seconds spent connecting for this request; ~0 on a reused connection *)
  reply : (Http.response, string) result;
}

type 'a conn = {
  mutable fd : Unix.file_descr option;
  carry : string ref;
  mutable inflight : 'a option;
  mutable sent : float;
  mutable connect_s : float;
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* [run] sends on every connection until [until], then lets the requests
   in flight finish. A connection whose request fails reports the error
   through [on_reply] and sends nothing more. [keep_alive = false] opens a
   fresh connection per request. *)
let run ~conns ~connect ~keep_alive ~until ~timeout ~next ~on_reply =
  let cs =
    Array.init conns (fun _ ->
        { fd = None; carry = ref ""; inflight = None; sent = 0.0; connect_s = 0.0 })
  in
  let close c =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
    c.fd <- None;
    c.carry := ""
  in
  let finish i c tag reply =
    c.inflight <- None;
    on_reply
      { conn = i; tag; latency = Clock.now () -. c.sent; connect = c.connect_s; reply }
  in
  let send i c =
    let (req : _ request) = next i in
    c.sent <- Clock.now ();
    let fd = match c.fd with Some fd -> Ok fd | None -> connect () in
    c.connect_s <- Clock.now () -. c.sent;
    match fd with
    | Error e -> finish i c req.tag (Error ("connect: " ^ e))
    | Ok fd -> (
        c.fd <- Some fd;
        match write_all fd req.bytes 0 with
        | () -> c.inflight <- Some req.tag
        | exception Unix.Unix_error (e, _, _) ->
            close c;
            finish i c req.tag (Error ("write: " ^ Unix.error_message e)))
  in
  Array.iteri send cs;
  let rec loop () =
    let pending =
      List.filter_map
        (fun i ->
          match (cs.(i).inflight, cs.(i).fd) with
          | Some tag, Some fd -> Some (i, tag, fd)
          | _ -> None)
        (List.init conns Fun.id)
    in
    if pending <> [] then begin
      let oldest = List.fold_left (fun acc (i, _, _) -> Float.min acc cs.(i).sent) infinity pending in
      let wait = Float.max 0.0 (oldest +. timeout -. Clock.now ()) in
      let ready =
        match Unix.select (List.map (fun (_, _, fd) -> fd) pending) [] [] wait with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun (i, tag, fd) ->
          let c = cs.(i) in
          if List.mem fd ready then
            match Http.read_response ~carry:c.carry ~timeout fd with
            | Ok resp ->
                finish i c tag (Ok resp);
                if not keep_alive then close c;
                if Clock.now () < until then send i c else close c
            | Error e ->
                close c;
                finish i c tag (Error (Http.error_to_string e))
          else if Clock.now () -. c.sent > timeout then begin
            close c;
            finish i c tag (Error "timeout")
          end)
        pending;
      loop ()
    end
  in
  Fun.protect loop ~finally:(fun () -> Array.iter close cs)
