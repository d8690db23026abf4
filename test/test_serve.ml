(** The serving daemon, end to end: a real [Serve.run] process on a temp
    Unix socket, driven by a raw-socket HTTP client. Covers the endpoint
    contracts, input validation with correct status codes, bit-identical
    served predictions, model-based /search with zero simulator
    invocations, a malformed-request fuzz loop, and graceful shutdown. *)

open Emc_core
module Json = Emc_obs.Json
module Serve = Emc_serve.Serve
module Http = Emc_serve.Http
module Server = Emc_serve.Server

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

(* One shared 25-dimensional artifact (the real parameter schema, so /search
   can decode design points); RBF on a synthetic response, fitted once. *)
let artifact =
  lazy
    (let rng = Emc_util.Rng.create 5 in
     let f x =
       5000.0 +. (300.0 *. x.(0)) -. (200.0 *. x.(1) *. x.(2)) +. (150.0 *. x.(14))
       +. (80.0 *. x.(20) *. x.(20))
     in
     let x =
       Array.init 60 (fun _ ->
           Array.init Params.n_all (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0))
     in
     let d = Emc_regress.Dataset.create x (Array.map f x) in
     let m = Emc_regress.Rbf.fit ~size_grid:[ 6 ] d in
     match
       Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:5 ~train_n:60 m
     with
     | Ok a -> a
     | Error e -> failwith e)

(* ---------------- raw-socket client ---------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_all fd =
  let b = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents b

(* Send raw bytes, close the write half, read the full response. *)
let raw_roundtrip path bytes =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         ignore (Unix.write_substring fd bytes 0 (String.length bytes));
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      read_all fd)

let parse_response resp =
  match String.index_opt resp '\r' with
  | None -> Alcotest.failf "unparseable response: %S" resp
  | Some _ -> (
      let status =
        match String.split_on_char ' ' resp with
        | _ :: code :: _ -> ( match int_of_string_opt code with Some c -> c | None -> -1)
        | _ -> -1
      in
      let body =
        let rec find i =
          if i + 3 >= String.length resp then ""
          else if String.sub resp i 4 = "\r\n\r\n" then
            String.sub resp (i + 4) (String.length resp - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

let request path ?(meth = "GET") ?(ctype = "application/json") ?body target =
  let b =
    match body with
    | None -> Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" meth target
    | Some body ->
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: t\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
           close\r\n\r\n%s"
          meth target ctype (String.length body) body
  in
  parse_response (raw_roundtrip path b)

let json_of body =
  match Json.parse (String.trim body) with
  | Ok j -> j
  | Error e -> Alcotest.failf "response body is not JSON (%s): %S" e body

(* ---------------- server lifecycle ---------------- *)

let sock_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "emc_serve_%d_%d.sock" (Unix.getpid ()) (Random.int 100000))

(* A loopback TCP port that was free when asked (the kernel's pick). *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> assert false

(* wait for a daemon to accept connections at [addr] *)
let wait_up addr =
  let sockaddr =
    match Http.sockaddr_of_addr addr with Ok a -> a | Error e -> Alcotest.fail e
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Http.connect ~timeout:1.0 sockaddr with
    | Ok fd -> Unix.close fd
    | Error _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "daemon did not come up on %s" (Http.addr_to_string addr)
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait ()
        end
  in
  wait ()

(* Fork a daemon serving the artifact on [listen], without waiting for
   it to come up; its pid. *)
let fork_server ?(workers = 1) ?(max_body = 4096) ?(read_timeout = 2.0) ?(idle_timeout = 5.0)
    ?(max_conns = 64) ?access_log listen =
  let art = Lazy.force artifact in
  match Unix.fork () with
  | 0 ->
      (* the daemon process: Serve.run returns after a signal *)
      (try
         Serve.run
           { Serve.listen; workers; max_body; read_timeout; idle_timeout; max_conns; access_log }
           art
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> pid

(* [listen] defaults to a fresh Unix socket; the handle carries its
   printed address (the socket path). *)
let start_server ?listen ?workers ?max_body ?read_timeout ?idle_timeout ?max_conns ?access_log
    () =
  let listen = match listen with Some a -> a | None -> Http.Unix_sock (sock_path ()) in
  let pid =
    fork_server ?workers ?max_body ?read_timeout ?idle_timeout ?max_conns ?access_log listen
  in
  wait_up listen;
  (pid, Http.addr_to_string listen)

(* SIGTERM the daemon and reap it (bounded: see [Helpers.stop_daemon]);
   its exit status, and whether its socket is still there. *)
let stop_server (pid, path) =
  match Helpers.stop_daemon pid with
  | Some status -> (status, Sys.file_exists path)
  | None -> Alcotest.failf "server %d is not this process's child" pid

let with_server ?listen ?workers ?max_body ?read_timeout ?idle_timeout ?max_conns ?access_log f =
  let ((pid, _) as srv) =
    start_server ?listen ?workers ?max_body ?read_timeout ?idle_timeout ?max_conns ?access_log ()
  in
  Fun.protect
    ~finally:(fun () ->
      if
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false
      then ignore (stop_server srv))
    (fun () -> f srv)

(* ---------------- tests ---------------- *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* One request through a fresh route table, in-process. *)
let handle art req =
  let hot = Serve.make_hot art in
  let status, content_type = Serve.handle_into hot req in
  (status, content_type, Buffer.contents (Serve.hot_body hot))

let test_routing_no_socket () =
  let art = Lazy.force artifact in
  let req meth path = { Http.meth; path; query = []; headers = []; body = "" } in
  let status, _, _ = handle art (req "GET" "/nope") in
  ci "unknown path is 404" 404 status;
  let status, _, body = handle art (req "DELETE" "/predict") in
  ci "wrong method is 405" 405 status;
  cb "405 is structured" true
    (match Json.member "error" (json_of body) with Some (Json.Obj _) -> true | _ -> false);
  let status, _, _ = handle art (req "GET" "/healthz") in
  ci "healthz is 200" 200 status

let mkreq ?(meth = "GET") ?(query = []) ?(body = "") path =
  { Http.meth; path; query; headers = []; body }

let test_rank_top_validation () =
  (* a malformed or non-positive ?top must be a structured 400, never a
     silent "return everything" *)
  let art = Lazy.force artifact in
  List.iter
    (fun v ->
      let status, _, body = handle art (mkreq "/rank" ~query:[ ("top", v) ]) in
      ci (Printf.sprintf "top=%S is 400" v) 400 status;
      cb (Printf.sprintf "top=%S carries code bad_request" v) true
        (match Json.member "error" (json_of body) with
        | Some e -> Json.member "code" e = Some (Json.Str "bad_request")
        | None -> false))
    [ "abc"; "0"; "-5"; "1.5"; "" ];
  (* sane values still work *)
  let status, _, _ = handle art (mkreq "/rank" ~query:[ ("top", "2") ]) in
  ci "top=2 is 200" 200 status

let test_rank_nan_coef_last () =
  (* polymorphic compare would order a NaN coefficient arbitrarily (and on
     this sort direction, first); the contract is strongest-first with NaN
     pinned last *)
  let art = Lazy.force artifact in
  let art =
    { art with
      Artifact.terms = [ ("tiny", 0.5); ("broken", Float.nan); ("big", -9.0); ("mid", 3.0) ] }
  in
  let status, _, body = handle art (mkreq "/rank") in
  ci "rank status" 200 status;
  match Json.member "terms" (json_of body) with
  | Some (Json.List terms) ->
      let names =
        List.map
          (fun t -> match Json.member "term" t with Some (Json.Str s) -> s | _ -> "?")
          terms
      in
      Alcotest.(check (list string)) "NaN coefficient ranks last, not first"
        [ "big"; "mid"; "tiny"; "broken" ] names
  | _ -> Alcotest.failf "no terms in %S" body

(* ---------------- /pareto (in-process) ---------------- *)

let test_pareto_requires_energy () =
  let art = Lazy.force artifact in
  let status, _, body =
    handle art (mkreq ~meth:"POST" ~body:{|{"config":"typical"}|} "/pareto")
  in
  ci "no energy response is 409" 409 status;
  cb "code no_energy_response" true
    (match Json.member "error" (json_of body) with
    | Some e -> Json.member "code" e = Some (Json.Str "no_energy_response")
    | None -> false)

(* The shared artifact with a second "energy" response, as /pareto needs. *)
let energy_artifact =
  lazy
    (let rng = Emc_util.Rng.create 6 in
     let g x =
       2.0 +. (0.4 *. x.(3)) +. (0.9 *. x.(0) *. x.(0)) -. (0.2 *. x.(11))
     in
     let x =
       Array.init 60 (fun _ ->
           Array.init Params.n_all (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0))
     in
     let energy =
       Emc_regress.Rbf.fit ~size_grid:[ 6 ] (Emc_regress.Dataset.create x (Array.map g x))
     in
     { (Lazy.force artifact) with
       Artifact.extra = [ ("energy", Option.get energy.Emc_regress.Model.repr) ] })

let test_pareto_matches_direct () =
  (* the served front must be byte-identical to the in-process search
     with the same seed/params *)
  let art = Lazy.force energy_artifact in
  let energy_repr = Option.get (Artifact.extra_repr art "energy") in
  let body_in = {|{"config":"typical","seed":3,"pop_size":16,"generations":6}|} in
  let status, _, served = handle art (mkreq ~meth:"POST" ~body:body_in "/pareto") in
  ci "pareto status" 200 status;
  let params = { Emc_search.Ga.default_params with pop_size = 16; generations = 6 } in
  let energy_model =
    { Emc_regress.Model.technique = "energy";
      predict = Emc_regress.Repr.eval energy_repr;
      n_params = 0; terms = []; repr = Some energy_repr }
  in
  let evals_before =
    Option.value ~default:0 (Emc_obs.Metrics.counter_value "pareto.evaluations")
  in
  let front =
    Searcher.search_pareto ~params ~rng:(Emc_util.Rng.create 3)
      ~cycles_model:(Artifact.model art) ~energy_model ~march:Emc_sim.Config.typical ()
  in
  let evals =
    Option.value ~default:0 (Emc_obs.Metrics.counter_value "pareto.evaluations") - evals_before
  in
  cb "front is non-empty" true (List.length front > 0);
  Alcotest.(check string) "served /pareto body is byte-identical to the direct search"
    (Json.to_string (Searcher.pareto_to_json ~seed:3 ~evaluations:evals front) ^ "\n")
    served

(* A search budget over the cap is refused where the body is decoded,
   before any search runs, with a 400 that names the cap; the cap itself
   is admitted. *)
let test_search_budget_capped () =
  let art = Lazy.force energy_artifact in
  let error msg = Printf.sprintf {|{"error":{"code":"bad_request","message":"%s"}}|} msg ^ "\n" in
  List.iter
    (fun path ->
      List.iter
        (fun (body, msg) ->
          let status, _, out = handle art (mkreq ~meth:"POST" ~body path) in
          ci (path ^ " " ^ body ^ ": status") 400 status;
          Alcotest.(check string) (path ^ " " ^ body ^ ": body") (error msg) out)
        [ ({|{"pop_size":1001,"generations":1}|}, {|\"pop_size\" must be at most 1000, got 1001|});
          ({|{"pop_size":2,"generations":1001}|},
           {|\"generations\" must be at most 1000, got 1001|}) ])
    [ "/search"; "/pareto" ];
  List.iter
    (fun body ->
      let status, _, _ = handle art (mkreq ~meth:"POST" ~body "/search") in
      ci (body ^ ": status") 200 status)
    [ {|{"pop_size":1000,"generations":1}|}; {|{"pop_size":2,"generations":1000}|} ]

let coded_point () = Array.init Params.n_all (fun i -> Float.of_int (i mod 3) /. 4.0)

let point_json x =
  Json.to_string (Json.List (Array.to_list (Array.map (fun v -> Json.Float v) x)))

let test_endpoints () =
  with_server (fun (_, path) ->
      let art = Lazy.force artifact in
      (* healthz *)
      let status, body = request path "/healthz" in
      ci "healthz status" 200 status;
      cb "healthz ok" true (Json.member "status" (json_of body) = Some (Json.Str "ok"));
      (* single predict, bit-identical to the in-process model *)
      let x = coded_point () in
      let expected = Emc_regress.Repr.eval art.Artifact.repr x in
      let status, body =
        request path ~meth:"POST" ~body:(Printf.sprintf {|{"point":%s}|} (point_json x))
          "/predict"
      in
      ci "predict status" 200 status;
      (match Json.member "prediction" (json_of body) with
      | Some (Json.Float p) ->
          Alcotest.(check int64) "served prediction is bit-identical"
            (Int64.bits_of_float expected) (Int64.bits_of_float p)
      | _ -> Alcotest.failf "no prediction in %S" body);
      (* batch predict *)
      let pts = [ x; Array.map (fun v -> -.v) x; Array.make Params.n_all 0.25 ] in
      let batch =
        Printf.sprintf {|{"points":[%s]}|} (String.concat "," (List.map point_json pts))
      in
      let status, body = request path ~meth:"POST" ~body:batch "/predict" in
      ci "batch status" 200 status;
      (match Json.member "predictions" (json_of body) with
      | Some (Json.List ps) ->
          ci "batch size" (List.length pts) (List.length ps);
          List.iter2
            (fun p x ->
              match p with
              | Json.Float p ->
                  Alcotest.(check int64) "batch element bit-identical"
                    (Int64.bits_of_float (Emc_regress.Repr.eval art.Artifact.repr x))
                    (Int64.bits_of_float p)
              | _ -> Alcotest.fail "non-float prediction")
            ps pts
      | _ -> Alcotest.failf "no predictions in %S" body);
      (* raw-space predict codes through the schema *)
      let raw = Params.decode Params.all_specs x in
      let body_raw =
        Printf.sprintf {|{"point":%s,"space":"raw"}|} (point_json raw)
      in
      let status, body = request path ~meth:"POST" ~body:body_raw "/predict" in
      ci "raw predict status" 200 status;
      cb "raw predict returns a number" true
        (match Json.member "prediction" (json_of body) with Some (Json.Float _) -> true | _ -> false);
      (* rank: sorted by |coef|, truncated by ?top *)
      let status, body = request path "/rank?top=3" in
      ci "rank status" 200 status;
      (match Json.member "terms" (json_of body) with
      | Some (Json.List terms) ->
          cb "rank truncates" true (List.length terms = 3);
          let coefs =
            List.filter_map
              (fun t -> match Json.member "coef" t with Some (Json.Float c) -> Some (Float.abs c) | _ -> None)
              terms
          in
          cb "rank sorted by |coef|" true (List.sort (fun a b -> compare b a) coefs = coefs)
      | _ -> Alcotest.failf "no terms in %S" body);
      (* metrics: prometheus text with the serve counters and zero simulations *)
      let status, body = request path "/metrics" in
      ci "metrics status" 200 status;
      let has s =
        let n = String.length body and m = String.length s in
        let rec go i = i + m <= n && (String.sub body i m = s || go (i + 1)) in
        go 0
      in
      cb "request counter exported" true (has "emc_serve_requests ");
      cb "per-endpoint counter exported" true (has "emc_serve_requests__predict ");
      cb "latency summary exported" true (has "emc_serve_latency_seconds__predict_count ");
      cb "zero simulator invocations" true (has "emc_measure_simulations 0"))

let test_validation () =
  with_server (fun (_, path) ->
      let check_error what (status, body) want =
        ci (what ^ ": status") want status;
        cb (what ^ ": structured error") true
          (match Json.member "error" (json_of body) with
          | Some (Json.Obj fields) ->
              List.mem_assoc "code" fields && List.mem_assoc "message" fields
          | _ -> false)
      in
      check_error "malformed JSON"
        (request path ~meth:"POST" ~body:"{ not json" "/predict")
        400;
      check_error "missing point"
        (request path ~meth:"POST" ~body:"{}" "/predict")
        400;
      check_error "wrong arity"
        (request path ~meth:"POST" ~body:{|{"point":[1,2,3]}|} "/predict")
        400;
      check_error "non-numeric point"
        (request path ~meth:"POST" ~body:{|{"point":["a"]}|} "/predict")
        400;
      check_error "wrong content type"
        (request path ~meth:"POST" ~ctype:"text/plain" ~body:{|{"point":[]}|} "/predict")
        415;
      check_error "unknown search config"
        (request path ~meth:"POST" ~body:{|{"config":"petaflop"}|} "/search")
        400;
      check_error "search budget over the cap"
        (request path ~meth:"POST" ~body:{|{"pop_size":1001,"generations":1}|} "/search")
        400;
      ci "healthz after a refused budget" 200 (fst (request path "/healthz"));
      (* declared body over the 4 KiB test cap *)
      let big = String.make 8000 'x' in
      check_error "oversized body"
        (request path ~meth:"POST" ~body:big "/predict")
        413;
      (* stalled request: opened, half a request line, then silence *)
      let fd = connect path in
      ignore (Unix.write_substring fd "POST /pre" 0 9);
      let resp = read_all fd in
      Unix.close fd;
      let status, _ = parse_response resp in
      ci "stalled request times out with 408" 408 status)

let test_search_matches_direct () =
  with_server (fun (_, path) ->
      let art = Lazy.force artifact in
      let status, body =
        request path ~meth:"POST"
          ~body:{|{"config":"typical","seed":9,"pop_size":24,"generations":10}|} "/search"
      in
      ci "search status" 200 status;
      let j = json_of body in
      let params =
        { Emc_search.Ga.default_params with pop_size = 24; generations = 10 }
      in
      let direct =
        Searcher.search ~params ~rng:(Emc_util.Rng.create 9) ~model:(Artifact.model art)
          ~march:Emc_sim.Config.typical ()
      in
      (match Json.member "predicted_cycles" j with
      | Some (Json.Float c) ->
          Alcotest.(check int64) "served search equals direct model-based search"
            (Int64.bits_of_float direct.Searcher.predicted_cycles) (Int64.bits_of_float c)
      | _ -> Alcotest.failf "no predicted_cycles in %S" body);
      (match Json.member "flags_string" j with
      | Some (Json.Str s) ->
          Alcotest.(check string) "served flags equal direct flags"
            (Emc_opt.Flags.to_string direct.Searcher.flags) s
      | _ -> Alcotest.failf "no flags_string in %S" body);
      match Json.member "evaluations" j with
      | Some (Json.Int n) -> cb "GA actually ran" true (n > 0)
      | _ -> Alcotest.failf "no evaluations in %S" body)

let test_fuzz_and_shutdown () =
  let srv = start_server () in
  let _, path = srv in
  (* the daemon must shrug off garbage: truncated requests, binary noise,
     lying content-lengths, oversized declarations *)
  let rng = Emc_util.Rng.create 77 in
  let garbage () =
    String.init (1 + Emc_util.Rng.int rng 200) (fun _ -> Char.chr (Emc_util.Rng.int rng 256))
  in
  for i = 0 to 29 do
    let payload =
      match i mod 5 with
      | 0 -> garbage ()
      | 1 -> "GET /healthz HTTP/1.1\r\nHost" (* truncated mid-header *)
      | 2 -> "POST /predict HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n" (* lying length *)
      | 3 -> "FROB /predict SPDY/9\r\n\r\n"
      | _ -> "POST /predict HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
    in
    ignore (try raw_roundtrip path payload with Unix.Unix_error _ -> "")
  done;
  (* still alive and correct *)
  let status, body = request path "/healthz" in
  ci "healthz after fuzz" 200 status;
  cb "healthz body after fuzz" true
    (Json.member "status" (json_of body) = Some (Json.Str "ok"));
  let _, metrics = request path "/metrics" in
  let has s =
    let n = String.length metrics and m = String.length s in
    let rec go i = i + m <= n && (String.sub metrics i m = s || go (i + 1)) in
    go 0
  in
  cb "fuzz errors counted (400s)" true (has "emc_serve_errors_400 ");
  cb "oversized counted (413s)" true (has "emc_serve_errors_413 ");
  (* graceful shutdown: SIGTERM -> exit 0, socket unlinked *)
  let status, socket_left = stop_server srv in
  cb "clean exit on SIGTERM" true (status = Unix.WEXITED 0);
  cb "socket unlinked on shutdown" false socket_left

(* A Content-Length that lies. One longer than the body, then a
   half-close, gets a 400 "truncated request". With a shorter one the
   declared bytes are the request (not JSON, so a 400), and the leftover
   bytes, once the client half-closes, are answered with a 400 and the
   connection closed. The daemon still answers /healthz after both. *)
let test_lying_content_length () =
  with_server (fun (_, path) ->
      let body = {|{"point":[0.5,0.25]}|} in
      let wire len =
        Printf.sprintf
          "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
           Content-Length: %d\r\n\r\n%s"
          len body
      in
      let status, reply = parse_response (raw_roundtrip path (wire (String.length body + 10))) in
      ci "an overstated length, then a half-close, is a 400" 400 status;
      cb "naming the truncated request" true (contains ~sub:"truncated request" reply);
      let fd = connect path in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () ->
          let bytes = wire (String.length body - 6) in
          ignore (Unix.write_substring fd bytes 0 (String.length bytes));
          let carry = ref "" in
          let next what =
            match Http.read_response ~timeout:5.0 ~carry fd with
            | Ok r -> r
            | Error e -> Alcotest.failf "%s: %s" what (Http.error_to_string e)
          in
          let r = next "the declared bytes" in
          ci "the declared bytes are a request with a cut body" 400 r.Http.status;
          cb "whose body is bad JSON" true (contains ~sub:"bad_json" r.Http.resp_body);
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let r = next "the leftover bytes" in
          ci "the leftover bytes are answered with a 400" 400 r.Http.status;
          cb "as a truncated request" true (contains ~sub:"truncated request" r.Http.resp_body);
          cb "and the connection closes" true
            (Http.read_response ~timeout:5.0 ~carry fd = Error Http.Closed));
      ci "healthz after the lies" 200 (fst (request path "/healthz")))

(* ---------------- request ids ---------------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* One keep-alive exchange using the Http client half. *)
let keepalive_request fd ?headers target =
  match
    Result.bind (Http.write_request fd ~meth:"GET" ~path:target ?headers ()) (fun () ->
        Http.read_response fd)
  with
  | Ok r -> r
  | Error _ -> Alcotest.failf "no response for %s" target

let test_request_ids () =
  with_server (fun (_, path) ->
      let fd = connect path in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* a sane client id is echoed verbatim *)
      let r = keepalive_request fd ~headers:[ ("X-Request-Id", "my-id_1.23") ] "/healthz" in
      cb "client id echoed" true (Http.response_header r "x-request-id" = Some "my-id_1.23");
      (* no id: the daemon generates one *)
      let id_of r =
        match Http.response_header r "x-request-id" with
        | Some id -> id
        | None -> Alcotest.fail "response carries no X-Request-Id"
      in
      let a = id_of (keepalive_request fd "/healthz") in
      let b = id_of (keepalive_request fd "/healthz") in
      cb "generated ids are nonempty" true (String.length a > 0);
      cb "generated ids are unique" true (a <> b);
      (* an insane client id (whitespace, header-breaking) is replaced *)
      let bad = "spaces and\ttabs" in
      let r = keepalive_request fd ~headers:[ ("X-Request-Id", bad) ] "/healthz" in
      cb "insane id replaced" true (id_of r <> bad);
      (* error responses carry an id too *)
      let r = keepalive_request fd "/nope" in
      ci "404 over keep-alive" 404 r.Http.status;
      cb "error response has an id" true (String.length (id_of r) > 0))

(* ---------------- cross-worker /metrics aggregation ---------------- *)

(* Three workers, three concurrent keep-alive connections, k requests
   apiece; a scrape must report the exact sum. Workers publish their
   snapshot right {e after} a response's last byte reaches the kernel,
   so a scrape racing another worker's final publish can trail it by
   microseconds — the test retries the scrape briefly until the sums
   converge, then asserts exactness. *)
let test_multiworker_metrics_sum () =
  with_server ~workers:3 (fun (_, path) ->
      let conns = List.init 3 (fun _ -> connect path) in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns)
      @@ fun () ->
      let k = 5 in
      List.iter
        (fun fd ->
          for _ = 1 to k do
            ci "healthz ok" 200 (keepalive_request fd "/healthz").Http.status
          done)
        conns;
      let scrape_values () =
        let scrape = keepalive_request (List.nth conns 1) "/metrics" in
        ci "metrics ok" 200 scrape.Http.status;
        let value_of name =
          let prefix = name ^ " " in
          let line =
            List.find_opt
              (fun l -> String.length l > String.length prefix
                        && String.sub l 0 (String.length prefix) = prefix)
              (String.split_on_char '\n' scrape.Http.resp_body)
          in
          match line with
          | Some l ->
              int_of_string
                (String.sub l (String.length prefix) (String.length l - String.length prefix))
          | None -> Alcotest.failf "no %s in scrape" name
        in
        ( value_of "emc_serve_requests",
          value_of "emc_serve_requests__healthz",
          value_of "emc_serve_latency_seconds__healthz_count",
          value_of "emc_serve_latency_seconds__healthz_bucket{le=\"+Inf\"}" )
      in
      (* scrape [attempt] is itself request 3k + attempt on its worker,
         and the answering worker publishes its live registry, so the
         scrape always counts itself *)
      let rec converge attempt =
        let ((requests, healthz, hist, inf) as got) = scrape_values () in
        let expected = ((3 * k) + attempt, 3 * k, 3 * k, 3 * k) in
        if got = expected || attempt >= 40 then (attempt, requests, healthz, hist, inf)
        else begin
          ignore (Unix.select [] [] [] 0.05);
          converge (attempt + 1)
        end
      in
      let attempt, requests, healthz, hist, inf = converge 1 in
      ci "requests counter is the exact sum" ((3 * k) + attempt) requests;
      ci "healthz counter is the exact sum" (3 * k) healthz;
      (* the merged latency histogram saw every healthz request *)
      ci "histogram count equals requests" (3 * k) hist;
      ci "le=+Inf bucket equals count" (3 * k) inf)

(* ---------------- access log ---------------- *)

let test_access_log () =
  let log = Filename.temp_file "emc_access" ".jsonl" in
  Sys.remove log;
  Fun.protect ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
  @@ fun () ->
  with_server ~access_log:log (fun ((_, path) as srv) ->
      let fd = connect path in
      ci "healthz" 200
        (keepalive_request fd ~headers:[ ("X-Request-Id", "log-me-1") ] "/healthz").Http.status;
      ci "rank" 200
        (keepalive_request fd ~headers:[ ("X-Request-Id", "log-me-2") ] "/rank?top=2").Http.status;
      Unix.close fd;
      (* graceful shutdown flushes the log before the daemon exits *)
      let status, _ = stop_server srv in
      cb "clean exit" true (status = Unix.WEXITED 0);
      let ic = open_in log in
      let lines = In_channel.input_lines ic in
      close_in ic;
      ci "one record per request" 2 (List.length lines);
      let records = List.map json_of lines in
      let field r name =
        match Json.member name r with
        | Some v -> v
        | None -> Alcotest.failf "access record lacks %S" name
      in
      List.iteri
        (fun i r ->
          cb "status 200" true (field r "status" = Json.Int 200);
          cb "id recorded" true
            (field r "id" = Json.Str (Printf.sprintf "log-me-%d" (i + 1)));
          cb "worker pid recorded" true (match field r "worker" with Json.Int p -> p > 0 | _ -> false);
          cb "bytes_out positive" true
            (match field r "bytes_out" with Json.Int n -> n > 0 | _ -> false);
          List.iter
            (fun phase ->
              cb (phase ^ " timing recorded") true
                (match field r phase with
                | Json.Float t -> t >= 0.0
                | Json.Int t -> t >= 0
                | _ -> false))
            [ "parse_s"; "handle_s"; "write_s" ])
        records;
      cb "paths recorded" true
        (field (List.nth records 1) "path" = Json.Str "/rank"))

(* ---------------- Http reader regressions ---------------- *)

(* Two complete requests in one write. The reader slurps past the first
   body; the surplus is the second request and must come back through
   [carry] — the pre-carry client silently discarded it, deadlocking any
   pipelined connection. *)
let test_http_pipelined_carry () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ client; server ])
    (fun () ->
      let req i body =
        Printf.sprintf "POST /m%d HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" i
          (String.length body) body
      in
      let bytes = req 1 "alpha" ^ req 2 "beta-longer" in
      ignore (Unix.write_substring client bytes 0 (String.length bytes));
      Unix.shutdown client Unix.SHUTDOWN_SEND;
      let carry = ref "" in
      (match Http.read_request ~timeout:2.0 ~carry server with
      | Ok r ->
          Alcotest.(check string) "first path" "/m1" r.Http.path;
          Alcotest.(check string) "first body" "alpha" r.Http.body
      | Error e -> Alcotest.failf "first request: %s" (Http.error_to_string e));
      match Http.read_request ~timeout:2.0 ~carry server with
      | Ok r ->
          Alcotest.(check string) "second path survives the first body's read-ahead"
            "/m2" r.Http.path;
          Alcotest.(check string) "second body" "beta-longer" r.Http.body
      | Error e -> Alcotest.failf "second request: %s" (Http.error_to_string e))

(* A peer dribbling one byte per interval. Each byte lands well inside any
   per-read socket timeout, so only an absolute deadline can stop this —
   the pre-fix client sat through the whole dribble (and a malicious peer
   could stretch it forever). *)
let test_http_dribble_timeout () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      let payload = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" in
      (try
         String.iter
           (fun c ->
             ignore (Unix.select [] [] [] 0.15);
             ignore (Unix.write_substring server (String.make 1 c) 0 1))
           payload
       with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close server;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Unix.close client with Unix.Unix_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let r = Http.read_response ~timeout:0.5 client in
          let elapsed = Unix.gettimeofday () -. t0 in
          cb "dribbled response times out" true (r = Error Http.Timeout);
          cb "the deadline bounds the whole response, not each read" true (elapsed < 2.0))

(* A peer that never writes, while an interval timer delivers SIGALRM
   every 50 ms. The pre-fix client restarted its full timeout window on
   every EINTR, so under a signal-heavy process (child reaping, profiling
   timers) the timeout never fired at all. *)
let test_http_eintr_budget () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let old_handler = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.05; it_value = 0.05 });
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm old_handler;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ client; server ])
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = Http.read_response ~timeout:0.4 client in
      let elapsed = Unix.gettimeofday () -. t0 in
      cb "silent peer times out despite constant signals" true (r = Error Http.Timeout);
      cb "EINTR re-waits with the remaining budget, not the full window" true
        (elapsed < 2.0))

(* ---------------- multiplexed scheduler ---------------- *)

(* Two connections to ONE worker, each pipelining several id-tagged
   requests in a single write. The scheduler must answer each
   connection's requests strictly in order, ids matched, with no
   cross-connection interleaving — the old one-connection-per-worker
   loop would have parked connection B until A closed. *)
let test_multiplexed_pipelining () =
  with_server ~workers:1 (fun (_, path) ->
      let ids tag = List.init 3 (fun i -> Printf.sprintf "%s-%d" tag i) in
      let mk id =
        Printf.sprintf "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: %s\r\n\r\n" id
      in
      let a = connect path and b = connect path in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
      @@ fun () ->
      let send fd tag =
        let text = String.concat "" (List.map mk (ids tag)) in
        write_all fd text 0 (String.length text)
      in
      send a "conn-a";
      send b "conn-b";
      let read_ids fd =
        let carry = ref "" in
        List.init 3 (fun _ ->
            match Http.read_response ~timeout:5.0 ~carry fd with
            | Ok r ->
                ci "pipelined healthz ok" 200 r.Http.status;
                (match Http.response_header r "x-request-id" with
                | Some id -> id
                | None -> Alcotest.fail "pipelined response carries no X-Request-Id")
            | Error e -> Alcotest.failf "pipelined read: %s" (Http.error_to_string e))
      in
      Alcotest.(check (list string)) "conn A: responses in request order, ids matched"
        (ids "conn-a") (read_ids a);
      Alcotest.(check (list string)) "conn B: responses in request order, ids matched"
        (ids "conn-b") (read_ids b))

(* A connection that never sends a byte is closed silently (clean EOF,
   no 408 body) once the idle deadline passes. *)
let test_idle_deadline_closes () =
  with_server ~idle_timeout:0.4 (fun (_, path) ->
      let fd = connect path in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let t0 = Unix.gettimeofday () in
      let buf = Bytes.create 64 in
      match Unix.read fd buf 0 64 with
      | 0 -> cb "silent close near the idle deadline" true (Unix.gettimeofday () -. t0 < 3.0)
      | n ->
          Alcotest.failf "idle connection got %d unexpected bytes: %S" n
            (Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "idle connection was not closed within 5 s")

(* A stalled reader: connection A pipelines far more responses than the
   socket buffer holds and reads none of them, so the worker's write to
   A blocks mid-stream (one buffered response, kernel back-pressure).
   The same worker must still answer connection B immediately — and A's
   access-log/metrics publish (deferred to after the write) must not
   block B either. Then A drains and every response arrives in order. *)
let test_stalled_reader_fairness () =
  let n = 3000 in
  with_server ~workers:1 ~read_timeout:5.0 (fun (_, path) ->
      let a = connect path and b = connect path in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
      @@ fun () ->
      let reqs = Buffer.create (n * 64) in
      for i = 1 to n do
        Buffer.add_string reqs
          (Printf.sprintf "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: st-%d\r\n\r\n" i)
      done;
      let text = Buffer.contents reqs in
      write_all a text 0 (String.length text);
      (* give the worker a moment to wedge against A's full socket buffer *)
      ignore (Unix.select [] [] [] 0.2);
      let t0 = Unix.gettimeofday () in
      ci "fast connection answered while A is stalled" 200
        (keepalive_request b "/healthz").Http.status;
      cb "stalled reader does not delay the fast connection" true
        (Unix.gettimeofday () -. t0 < 1.0);
      (* now drain A: all n responses, in order *)
      let carry = ref "" in
      for i = 1 to n do
        match Http.read_response ~timeout:5.0 ~carry a with
        | Ok r ->
            if r.Http.status <> 200 then Alcotest.failf "stalled conn response %d: %d" i r.Http.status;
            if Http.response_header r "x-request-id" <> Some (Printf.sprintf "st-%d" i) then
              Alcotest.failf "stalled conn response %d out of order" i
        | Error e -> Alcotest.failf "stalled conn response %d: %s" i (Http.error_to_string e)
      done)

(* A dribbling writer: connection A delivers its request one byte at a
   time. While it dribbles, the same worker keeps answering connection B
   at full speed, and A's request is served normally once its last byte
   lands (it stays inside the read deadline). *)
let test_dribbling_writer_fairness () =
  with_server ~workers:1 ~read_timeout:5.0 (fun (_, path) ->
      let a = connect path and b = connect path in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
      @@ fun () ->
      let text = "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: dribble\r\n\r\n" in
      match Unix.fork () with
      | 0 ->
          (try Unix.close b with Unix.Unix_error _ -> ());
          (try
             String.iter
               (fun ch ->
                 ignore (Unix.select [] [] [] 0.04);
                 ignore (Unix.write_substring a (String.make 1 ch) 0 1))
               text
           with Unix.Unix_error _ -> ());
          Unix._exit 0
      | pid ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          @@ fun () ->
          (* ~2.5 s of dribble; keep hammering B meanwhile *)
          let worst = ref 0.0 in
          let t_end = Unix.gettimeofday () +. 1.5 in
          while Unix.gettimeofday () < t_end do
            let t0 = Unix.gettimeofday () in
            ci "fast connection during dribble" 200 (keepalive_request b "/healthz").Http.status;
            worst := Float.max !worst (Unix.gettimeofday () -. t0);
            ignore (Unix.select [] [] [] 0.02)
          done;
          cb "dribbler does not raise the fast connection's latency" true (!worst < 0.5);
          (* the dribbled request completes once its bytes are all in *)
          match Http.read_response ~timeout:10.0 a with
          | Ok r ->
              ci "dribbled request served" 200 r.Http.status;
              cb "dribbled request id echoed" true
                (Http.response_header r "x-request-id" = Some "dribble")
          | Error e -> Alcotest.failf "dribbled request: %s" (Http.error_to_string e))

(* A request sent on an idle keep-alive connection while another
   connection's handler blocks past that connection's idle deadline is
   served once the handler returns: deadlines are checked only after the
   select pass has read pending input. *)
let test_deadline_after_pending_input () =
  let path = sock_path () in
  let routes =
    Server.table
      [ ("GET", "/block", fun _ b -> Unix.sleepf 1.0; Server.reply b 200 (Json.Str "slow"));
        ("GET", "/healthz", fun _ b -> Server.reply b 200 (Json.Str "ok")) ]
  in
  match Unix.fork () with
  | 0 ->
      let addr = Unix.ADDR_UNIX path in
      (try
         let lsock = Server.bind addr in
         Server.run ~max_body:4096 ~read_timeout:5.0 ~idle_timeout:0.3 ~max_conns:8 routes lsock;
         Server.release addr lsock
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Fun.protect ~finally:(fun () -> ignore (stop_server (pid, path))) @@ fun () ->
      wait_up (Http.Unix_sock path);
      let b = connect path in
      ci "warm-up request" 200 (keepalive_request b "/healthz").Http.status;
      let a = connect path in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
      @@ fun () ->
      let block = "GET /block HTTP/1.1\r\nHost: t\r\n\r\n" in
      write_all a block 0 (String.length block);
      (* well inside the 1 s block, and past b's 0.3 s idle deadline *)
      ignore (Unix.select [] [] [] 0.5);
      ci "request sent during the block is served" 200 (keepalive_request b "/healthz").Http.status;
      match Http.read_response ~timeout:5.0 a with
      | Ok r -> ci "blocking request served" 200 r.Http.status
      | Error e -> Alcotest.failf "blocking request: %s" (Http.error_to_string e)

(* /predict against the model: one [hot] answers every request shape
   twice, so the second pass runs on the staged evaluator's reused
   scratch. A success body is [Repr.eval] rendered the way
   [emc predict --json] renders it; an error body is a literal. *)
let test_predict_shapes () =
  let art = Lazy.force artifact in
  let hot = Serve.make_hot art in
  let dims = Params.n_all in
  let rng = Emc_util.Rng.create 11 in
  let coded () = Array.init dims (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0) in
  let raw () = Params.decode Params.all_specs (coded ()) in
  let jpoint x = Json.List (Array.to_list (Array.map (fun v -> Json.Float v) x)) in
  let post ?(ctype = "application/json") kvs =
    { Http.meth = "POST"; path = "/predict"; query = []; headers = [ ("content-type", ctype) ];
      body = Json.to_string (Json.Obj kvs) }
  in
  let post_text body = { (post []) with Http.body } in
  let predict = Emc_regress.Repr.eval art.Artifact.repr in
  let rendered j = Json.to_string j ^ "\n" in
  let single x = (200, rendered (Json.Obj [ ("prediction", Json.Float (predict x)) ])) in
  let batch xs =
    (200, rendered (Json.Obj [ ("predictions", Json.List (List.map (fun x -> Json.Float (predict x)) xs)) ]))
  in
  let x = coded () and r = raw () in
  let xs = List.init 3 (fun _ -> coded ()) and rs = List.init 2 (fun _ -> raw ()) in
  let big = List.init 300 (fun _ -> coded ()) in
  let mixed = Array.init dims (fun i -> Float.of_int ((i mod 3) - 1) /. 2.0) in
  let mixed_json =
    Json.List
      (List.init dims (fun i ->
           if i mod 2 = 0 then Json.Str (Printf.sprintf "%g" mixed.(i))
           else if mixed.(i) = Float.round mixed.(i) then Json.Int (int_of_float mixed.(i))
           else Json.Float mixed.(i)))
  in
  let error status code msg =
    (status, Printf.sprintf {|{"error":{"code":"%s","message":"%s"}}|} code msg ^ "\n")
  in
  let shapes =
    [ ("single", post [ ("point", jpoint x) ], single x);
      ("space coded", post [ ("point", jpoint x); ("space", Json.Str "coded") ], single x);
      ("batch", post [ ("points", Json.List (List.map jpoint xs)) ], batch xs);
      ("batch of one", post [ ("points", Json.List [ jpoint x ]) ], batch [ x ]);
      ("empty batch", post [ ("points", Json.List []) ], batch []);
      ("300-point batch", post [ ("points", Json.List (List.map jpoint big)) ], batch big);
      ("numeric strings and ints", post [ ("point", mixed_json) ], single mixed);
      ("raw", post [ ("point", jpoint r); ("space", Json.Str "raw") ],
       single (Params.code Params.all_specs r));
      ("raw batch", post [ ("points", Json.List (List.map jpoint rs)); ("space", Json.Str "raw") ],
       batch (List.map (Params.code Params.all_specs) rs));
      ("charset content type", post ~ctype:"application/json; charset=utf-8" [ ("point", jpoint x) ],
       single x);
      ("empty body", post_text "",
       error 400 "bad_json" "malformed JSON body: unexpected end of input at offset 0");
      ("not json", post_text "{not json",
       error 400 "bad_json" {|malformed JSON body: expected '\"' at offset 1|});
      ("no point", post [ ("nope", Json.Int 1) ],
       error 400 "bad_request" {|body must carry \"point\" or \"points\"|});
      ("wrong arity", post [ ("point", Json.List [ Json.Float 0.5 ]) ],
       error 400 "bad_point" "expected 25 coded values, got 1");
      ("point not a list", post [ ("point", Json.Str "banana") ],
       error 400 "bad_request" "each point must be a list of numbers");
      ("malformed number", post [ ("points", Json.List [ Json.List (List.init dims (fun _ -> Json.Str "x")) ]) ],
       error 400 "bad_request" {|malformed number \"x\"|});
      ("null element", post [ ("point", Json.List [ Json.Null ]) ],
       error 400 "bad_request" "expected a number");
      ("unknown space", post [ ("point", jpoint x); ("space", Json.Str "warped") ],
       error 400 "bad_request" {|unknown space \"warped\" (want \"coded\" or \"raw\")|});
      ("space not a string", post [ ("point", jpoint x); ("space", Json.Int 1) ],
       error 400 "bad_request" {|\"space\" must be a string|});
      ("points not a list", post [ ("points", Json.Int 5) ],
       error 400 "bad_request" {|\"points\" must be a list of points|});
      ("point and points", post [ ("point", jpoint x); ("points", Json.List [ jpoint x ]) ],
       error 400 "bad_request" {|give either \"point\" or \"points\", not both|});
      ("4097-point batch", post [ ("points", Json.List (List.init 4097 (fun _ -> jpoint x))) ],
       error 413 "too_many_points" "batch of 4097 points exceeds the 4096 cap");
      ("non-finite coded value",
       post_text ("{\"point\":[1e999" ^ String.concat "" (List.init (dims - 1) (fun _ -> ",0")) ^ "]}"),
       error 400 "bad_point" "point contains a non-finite value");
      ("parse before validate",
       post [ ("points", Json.List [ Json.List [ Json.Float 0.5 ]; Json.Str "banana" ]) ],
       error 400 "bad_request" "each point must be a list of numbers");
      ("raw wrong arity", post [ ("point", Json.List [ Json.Int 1 ]); ("space", Json.Str "raw") ],
       error 400 "bad_point" "expected 25 raw values, got 1");
      ("wrong content type", post ~ctype:"text/plain" [ ("point", jpoint x) ],
       error 415 "unsupported_media_type" "content-type must be application/json, got text/plain");
      ("GET /predict", { (post_text "") with Http.meth = "GET"; headers = [] },
       error 405 "method_not_allowed" "GET is not supported on /predict");
      ("GET /nope", { (post_text "") with Http.meth = "GET"; path = "/nope"; headers = [] },
       error 404 "not_found" "no such endpoint: /nope") ]
  in
  List.iter
    (fun (what, req, (want_status, want_body)) ->
      for pass = 1 to 2 do
        let status, ctype = Serve.handle_into hot req in
        let tag = Printf.sprintf "%s, pass %d" what pass in
        ci (tag ^ ": status") want_status status;
        Alcotest.(check string) (tag ^ ": content type") "application/json" ctype;
        Alcotest.(check string) (tag ^ ": body bytes") want_body
          (Buffer.contents (Serve.hot_body hot))
      done)
    shapes

(* A number the JSON grammar rejects is the client's malformed body, not
   a server fault. *)
let test_predict_malformed_number () =
  let art = Lazy.force artifact in
  List.iter
    (fun body ->
      let status, _, out = handle art (mkreq ~meth:"POST" ~body "/predict") in
      ci (body ^ ": status") 400 status;
      cb (body ^ ": code bad_json") true
        (match Json.member "error" (json_of out) with
        | Some e -> Json.member "code" e = Some (Json.Str "bad_json")
        | None -> false))
    [ {|{"point":[1e]}|}; {|{"point":[.]}|}; {|{"point":[-.]}|}; {|{"point":"\uZZZZ"}|} ]

(* A raw value with no finite coding (0 in a log2-coded parameter) is the
   client's bad point, never a 200 with a null prediction. *)
let test_predict_raw_uncodable () =
  let art = Lazy.force artifact in
  let raw = Params.decode Params.all_specs (coded_point ()) in
  let bpred =
    Option.get (Array.find_index (fun s -> s.Params.name = "bpred-size") Params.all_specs)
  in
  List.iter
    (fun v ->
      raw.(bpred) <- v;
      let body = Printf.sprintf {|{"point":%s,"space":"raw"}|} (point_json raw) in
      let status, _, out = handle art (mkreq ~meth:"POST" ~body "/predict") in
      ci (Printf.sprintf "bpred-size %g: status" v) 400 status;
      cb (Printf.sprintf "bpred-size %g: code bad_point naming the parameter" v) true
        (match Json.member "error" (json_of out) with
        | Some e -> (
            Json.member "code" e = Some (Json.Str "bad_point")
            &&
            match Json.member "message" e with
            | Some (Json.Str m) -> contains ~sub:"bpred-size" m
            | _ -> false)
        | None -> false))
    [ 0.0; -512.0 ]

(* A SIGTERM sent the moment the daemon's socket appears, found by
   spinning with no sleep, still ends it through its cleanup: exit 0,
   with no socket and no metrics directory left, at each of 10 starts. *)
let test_stop_at_startup () =
  for i = 1 to 10 do
    let path = sock_path () in
    let pid = fork_server (Http.Unix_sock path) in
    let metrics =
      Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "emc-serve-%d.metrics" pid)
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (Sys.file_exists path) do
      if Unix.gettimeofday () > deadline then begin
        ignore (stop_server (pid, path));
        Alcotest.failf "start %d: no socket after 10 s" i
      end
    done;
    Unix.kill pid Sys.sigterm;
    let status, socket_left = stop_server (pid, path) in
    cb (Printf.sprintf "start %d exits 0" i) true (status = Unix.WEXITED 0);
    cb (Printf.sprintf "start %d leaves no socket" i) false socket_left;
    cb (Printf.sprintf "start %d leaves no metrics directory" i) false (Sys.file_exists metrics)
  done

(* The smallest budget the caps admit: a one-genome /search answers 200
   with the direct search's bits. Before, the GA copied two elites out of
   one genome and the daemon answered 500. *)
let test_search_pop_one () =
  with_server (fun (_, path) ->
      let art = Lazy.force artifact in
      let body = {|{"config":"typical","seed":4,"pop_size":1,"generations":3}|} in
      let status, reply = request path ~meth:"POST" ~body "/search" in
      ci "search status" 200 status;
      let direct =
        Searcher.search
          ~params:{ Emc_search.Ga.default_params with pop_size = 1; generations = 3 }
          ~rng:(Emc_util.Rng.create 4) ~model:(Artifact.model art) ~march:Emc_sim.Config.typical ()
      in
      (match Json.member "predicted_cycles" (json_of reply) with
      | Some (Json.Float c) ->
          Alcotest.(check int64) "served search equals direct search"
            (Int64.bits_of_float direct.Searcher.predicted_cycles) (Int64.bits_of_float c)
      | _ -> Alcotest.failf "no predicted_cycles in %S" reply))

let suite =
  [
    Alcotest.test_case "routing and structured errors (in-process)" `Quick
      test_routing_no_socket;
    Alcotest.test_case "/rank rejects malformed ?top" `Quick test_rank_top_validation;
    Alcotest.test_case "/rank orders NaN coefficients last" `Quick test_rank_nan_coef_last;
    Alcotest.test_case "/pareto without energy response is 409" `Quick
      test_pareto_requires_energy;
    Alcotest.test_case "/pareto equals direct bi-objective search" `Quick
      test_pareto_matches_direct;
    Alcotest.test_case "/search and /pareto cap their budgets" `Quick test_search_budget_capped;
    Alcotest.test_case "endpoints over a unix socket" `Quick test_endpoints;
    Alcotest.test_case "input validation status codes" `Quick test_validation;
    Alcotest.test_case "/search equals direct model-based search" `Quick
      test_search_matches_direct;
    Alcotest.test_case "survives fuzz; graceful shutdown" `Quick test_fuzz_and_shutdown;
    Alcotest.test_case "a lying Content-Length gets a 400" `Quick test_lying_content_length;
    Alcotest.test_case "request ids: echo, generate, replace" `Quick test_request_ids;
    Alcotest.test_case "/metrics sums exactly across workers" `Quick
      test_multiworker_metrics_sum;
    Alcotest.test_case "access log: one JSONL record per request" `Quick test_access_log;
    Alcotest.test_case "http: pipelined requests survive body read-ahead" `Quick
      test_http_pipelined_carry;
    Alcotest.test_case "http: read deadline bounds a dribbling peer" `Quick
      test_http_dribble_timeout;
    Alcotest.test_case "http: EINTR does not restart the timeout" `Quick
      test_http_eintr_budget;
    Alcotest.test_case "mux: two connections pipeline through one worker" `Quick
      test_multiplexed_pipelining;
    Alcotest.test_case "mux: idle deadline closes a silent connection" `Quick
      test_idle_deadline_closes;
    Alcotest.test_case "mux: stalled reader cannot pin the worker" `Quick
      test_stalled_reader_fairness;
    Alcotest.test_case "mux: dribbling writer cannot pin the worker" `Quick
      test_dribbling_writer_fairness;
    Alcotest.test_case "mux: deadlines checked after pending input is read" `Quick
      test_deadline_after_pending_input;
    Alcotest.test_case "/predict answers Repr.eval's bytes" `Quick test_predict_shapes;
    Alcotest.test_case "/predict: bad numbers are bad_json" `Quick
      test_predict_malformed_number;
    Alcotest.test_case "/predict: uncodable raw is bad_point" `Quick
      test_predict_raw_uncodable;
    Alcotest.test_case "SIGTERM as its socket appears: exit 0, nothing left" `Quick
      test_stop_at_startup;
    Alcotest.test_case "/search at pop 1 answers 200" `Quick test_search_pop_one;
  ]
