(** The one HTTP framing and the client path. Properties over generated
    pipelined streams of requests and of responses (random methods,
    paths, headers, and bodies that are empty, short or at least 8 KiB):
    repeated parses frame exactly the original messages, every strict
    prefix is [Incomplete] and asks for exactly the bytes a parse needs,
    and the blocking readers recover the same messages from a socket fed
    in random-size pieces. Plus the reader's error taxonomy, total name
    resolution and [TCP_NODELAY] on connect. *)

module Http = Emc_serve.Http
module G = QCheck.Gen

let cb = Alcotest.(check bool)

(* ---------------- generated messages ---------------- *)

let alnum =
  List.of_seq (String.to_seq "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")

let word = G.string_size ~gen:(G.oneofl alnum) (G.int_range 1 10)

(* Names never collide with the framing headers the generator sets;
   values are printable, may hold ':' and are trimmed as the parser
   trims them. *)
let header_gen =
  G.pair
    (G.map (fun w -> "X-" ^ w) word)
    (G.map String.trim (G.string_size ~gen:(G.char_range ' ' '~') (G.int_range 0 40)))

let body_gen =
  G.frequency
    [ (2, G.return "");
      (3, G.string_size ~gen:G.char (G.int_range 1 64));
      (1, G.string_size ~gen:G.char (G.int_range 8192 12288)) ]

(* A message's wire bytes plus its framing headers: an empty body may
   or may not declare [Content-Length: 0]. *)
let wire ~first ~headers ~body ~zero =
  let headers =
    if body = "" && not zero then headers
    else headers @ [ ("Content-Length", string_of_int (String.length body)) ]
  in
  ( first ^ "\r\n"
    ^ String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers)
    ^ "\r\n" ^ body,
    List.map (fun (k, v) -> (String.lowercase_ascii k, v)) headers )

let request_gen =
  let open G in
  let+ meth = oneofl [ "GET"; "POST"; "PUT"; "DELETE"; "PATCH" ]
  and+ segs = list_size (int_range 0 3) word
  and+ query = list_size (int_range 0 2) (pair word word)
  and+ headers = list_size (int_range 0 4) header_gen
  and+ body = body_gen
  and+ zero = bool in
  let path = "/" ^ String.concat "/" segs in
  let target =
    if query = [] then path
    else path ^ "?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) query)
  in
  let bytes, headers =
    wire ~first:(Printf.sprintf "%s %s HTTP/1.1" meth target) ~headers ~body ~zero
  in
  (bytes, { Http.meth; path; query; headers; body })

let response_gen =
  let open G in
  let+ status = oneofl [ 200; 201; 204; 301; 400; 404; 409; 500; 503 ]
  and+ reason = list_size (int_range 1 3) word
  and+ headers = list_size (int_range 0 4) header_gen
  and+ body = body_gen
  and+ zero = bool in
  let bytes, resp_headers =
    wire
      ~first:(Printf.sprintf "HTTP/1.1 %d %s" status (String.concat " " reason))
      ~headers ~body ~zero
  in
  (bytes, { Http.status; resp_headers; resp_body = body })

let stream_arb gen =
  QCheck.make
    ~print:(fun msgs ->
      String.concat " | "
        (List.map
           (fun (bytes, _) ->
             let n = String.length bytes in
             Printf.sprintf "%d bytes: %S%s" n (String.sub bytes 0 (min n 120))
               (if n > 120 then "..." else ""))
           msgs))
    (G.list_size (G.int_range 1 6) gen)

(* Write sizes for the socket tests, cycled over the stream: mostly
   small, so reads split heads and bodies anywhere. *)
let pieces_gen =
  G.list_size (G.int_range 1 8) (G.frequency [ (3, G.int_range 1 16); (2, G.int_range 17 4096) ])

(* ---------------- the pure framer ---------------- *)

let body_start bytes =
  let rec go i = if String.sub bytes i 4 = "\r\n\r\n" then i + 4 else go (i + 1) in
  go 0

(* Consecutive parses over the whole stream frame exactly the original
   messages and consume exactly its length; every strict prefix of a
   message is [Incomplete], asking for one more byte while the head is
   open and for the whole message once it is read. *)
let frames parse msgs =
  let stream = String.concat "" (List.map fst msgs) in
  let rec whole off = function
    | [] -> off = String.length stream
    | (_, expected) :: rest -> (
        match parse (String.sub stream off (String.length stream - off)) with
        | Http.Parsed (m, n) -> m = expected && whole (off + n) rest
        | Http.Incomplete _ | Http.Invalid _ -> false)
  in
  let prefixes (bytes, _) =
    let len = String.length bytes and start = body_start bytes in
    let rec go k =
      k >= len
      ||
      match parse (String.sub bytes 0 k) with
      | Http.Incomplete need -> need = (if k >= start then len else k + 1) && go (k + 1)
      | Http.Parsed _ | Http.Invalid _ -> false
    in
    go 0
  in
  whole 0 msgs && List.for_all prefixes msgs

let prop_requests_frame =
  QCheck.Test.make ~name:"pipelined requests frame exactly" ~count:25 (stream_arb request_gen)
    (frames (fun s -> Http.parse_request s))

let prop_responses_frame =
  QCheck.Test.make ~name:"pipelined responses frame exactly" ~count:25
    (stream_arb response_gen)
    (frames (fun s -> Http.parse_response s))

(* ---------------- the blocking reader ---------------- *)

(* A forked writer sends the stream in the given piece sizes; one carry
   recovers every message, then the clean EOF is [Closed]. *)
let through_socket read (msgs, pieces) =
  let stream = String.concat "" (List.map fst msgs) in
  let pieces = Array.of_list pieces in
  let writer, reader = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Unix.close reader;
      let rec go off i =
        if off < String.length stream then begin
          let n = min pieces.(i mod Array.length pieces) (String.length stream - off) in
          let w = Unix.write_substring writer stream off n in
          Unix.sleepf 1e-4;
          go (off + w) (i + 1)
        end
      in
      (try go 0 0 with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close writer;
      Fun.protect
        ~finally:(fun () ->
          Unix.close reader;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let carry = ref "" in
          List.for_all (fun (_, expected) -> read ~carry reader = Ok expected) msgs
          && read ~carry reader = Error Http.Closed)

let prop_requests_socket =
  QCheck.Test.make ~name:"requests survive random write pieces" ~count:25
    (QCheck.pair (stream_arb request_gen) (QCheck.make pieces_gen))
    (through_socket (fun ~carry fd -> Http.read_request ~timeout:5.0 ~carry fd))

let prop_responses_socket =
  QCheck.Test.make ~name:"responses survive random write pieces" ~count:25
    (QCheck.pair (stream_arb response_gen) (QCheck.make pieces_gen))
    (through_socket (fun ~carry fd -> Http.read_response ~timeout:5.0 ~carry fd))

(* What the peer sends before closing its end, and what the reader
   reports. *)
let read_after bytes =
  let writer, reader = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close reader) @@ fun () ->
  ignore (Unix.write_substring writer bytes 0 (String.length bytes));
  Unix.close writer;
  Http.read_response ~timeout:5.0 ~max_header:64 reader

let test_read_errors () =
  cb "clean EOF before any byte is Closed" true (read_after "" = Error Http.Closed);
  cb "EOF inside the head is Bad" true
    (match read_after "HTTP/1.1 200 OK\r\nContent-Le" with Error (Http.Bad _) -> true | _ -> false);
  cb "EOF inside the body is Bad" true
    (match read_after "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc" with
    | Error (Http.Bad _) -> true
    | _ -> false);
  cb "a head over the cap is Too_large" true
    (read_after ("HTTP/1.1 200 OK\r\nX-Pad: " ^ String.make 100 'x' ^ "\r\n\r\n")
    = Error (Http.Too_large "headers"));
  cb "a chunked body is Bad" true
    (match read_after "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" with
    | Error (Http.Bad _) -> true
    | _ -> false)

(* ---------------- the client path ---------------- *)

let test_connect_nodelay () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lsock) @@ fun () ->
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  match Http.connect ~timeout:5.0 (Unix.getsockname lsock) with
  | Error e -> Alcotest.failf "connect: %s" (Http.error_to_string e)
  | Ok fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      cb "TCP_NODELAY set" true (Unix.getsockopt fd Unix.TCP_NODELAY)

let test_resolution_total () =
  cb "an IP literal needs no lookup" true
    (Http.sockaddr_of_addr (Http.Tcp ("127.0.0.1", 80))
    = Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, 80)));
  cb "a socket path is itself" true
    (Http.sockaddr_of_addr (Http.Unix_sock "/tmp/x.sock") = Ok (Unix.ADDR_UNIX "/tmp/x.sock"));
  cb "an unresolvable host is an Error" true
    (Result.is_error (Http.sockaddr_of_addr (Http.Tcp ("no-such-host.invalid", 80))));
  cb "a call to it is Refused" true
    (match Http.call (Http.Tcp ("no-such-host.invalid", 80)) ~meth:"GET" ~path:"/" () with
    | Error (Http.Refused _) -> true
    | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_requests_frame;
    QCheck_alcotest.to_alcotest prop_responses_frame;
    QCheck_alcotest.to_alcotest prop_requests_socket;
    QCheck_alcotest.to_alcotest prop_responses_socket;
    Alcotest.test_case "read errors: Closed, Bad, Too_large" `Quick test_read_errors;
    Alcotest.test_case "connect sets TCP_NODELAY on TCP" `Quick test_connect_nodelay;
    Alcotest.test_case "address resolution is total" `Quick test_resolution_total;
  ]
