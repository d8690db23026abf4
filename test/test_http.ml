(** The one HTTP framing and the client path. Properties over generated
    pipelined streams of requests and of responses (random methods,
    paths, headers, and bodies that are empty, short or at least 8 KiB):
    repeated parses frame exactly the original messages, every strict
    prefix is [Incomplete] and asks for exactly the bytes a parse needs,
    and the blocking readers recover the same messages from a socket fed
    in random-size pieces. Generated malformed heads, and every prefix of
    each, frame exactly as a reference copy of the framer that trimmed
    copied lines. Plus the reader's error taxonomy, total name resolution
    and [TCP_NODELAY] on connect. *)

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

(* ---------------- malformed heads ---------------- *)

(* The framer as it was before heads were walked by index: the head
   copied out, split into lines, each line trimmed, headers split and
   trimmed again. [Http.parse_request] and [Http.parse_response] must
   agree with it on every input. *)
module Reference = struct
  let url_decode s =
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '+' -> Buffer.add_char b ' '
      | '%' when !i + 2 < n -> (
          match (hex s.[!i + 1], hex s.[!i + 2]) with
          | Some h, Some l ->
              Buffer.add_char b (Char.chr ((h lsl 4) lor l));
              i := !i + 2
          | _ -> Buffer.add_char b '%')
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b

  let parse_query q =
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
                 Some
                   ( url_decode (String.sub kv 0 i),
                     url_decode (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (url_decode kv, ""))

  let parse_headers lines =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i ->
            Some
              ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
        | None -> None)
      lines

  let find_head_end s =
    let n = String.length s in
    let rec go i =
      if i + 3 >= n then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
        Some i
      else go (i + 1)
    in
    go 0

  let ( let* ) = Result.bind

  let content_length headers =
    match List.assoc_opt "content-length" headers with
    | None -> Ok 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Http.Bad ("malformed content-length: " ^ v)))

  let frame ~max_header ~max_body start s =
    match find_head_end s with
    | None ->
        if String.length s > max_header then Http.Invalid (Http.Too_large "headers")
        else Http.Incomplete (String.length s + 1)
    | Some i when i > max_header -> Http.Invalid (Http.Too_large "headers")
    | Some i -> (
        let first, lines =
          match List.map String.trim (String.split_on_char '\n' (String.sub s 0 i)) with
          | first :: lines -> (first, lines)
          | [] -> ("", [])
        in
        let headers = parse_headers lines in
        let framed =
          let* make = start first headers in
          let* () =
            if List.mem_assoc "transfer-encoding" headers then
              Error (Http.Bad "chunked transfer encoding is not supported")
            else Ok ()
          in
          let* len = content_length headers in
          if len > max_body then Error (Http.Too_large "body") else Ok (make, len)
        in
        match framed with
        | Error e -> Http.Invalid e
        | Ok (make, len) ->
            let body_start = i + 4 in
            if String.length s - body_start >= len then
              Http.Parsed (make (String.sub s body_start len), body_start + len)
            else Http.Incomplete (body_start + len))

  let request_start first headers =
    match String.split_on_char ' ' first with
    | [ meth; target; ("HTTP/1.1" | "HTTP/1.0") ] ->
        let path, query =
          match String.index_opt target '?' with
          | Some i ->
              ( url_decode (String.sub target 0 i),
                parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
          | None -> (url_decode target, [])
        in
        let meth = String.uppercase_ascii meth in
        Ok (fun body -> { Http.meth; path; query; headers; body })
    | _ -> Error (Http.Bad "malformed request line")

  let response_start first headers =
    match String.split_on_char ' ' first with
    | version :: code :: _ when String.starts_with ~prefix:"HTTP/" version -> (
        match int_of_string_opt code with
        | Some status -> Ok (fun resp_body -> { Http.status; resp_headers = headers; resp_body })
        | None -> Error (Http.Bad ("malformed status code: " ^ code)))
    | _ -> Error (Http.Bad "malformed status line")

  let parse_request ~max_header ~max_body s = frame ~max_header ~max_body request_start s
  let parse_response ~max_header ~max_body s = frame ~max_header ~max_body response_start s
end

(* Bytes [String.trim] strips, and a bare '\n' or '\r' among them *)
let pad =
  G.frequency
    [ (4, G.return "");
      (3, G.string_size ~gen:(G.oneofl [ ' '; '\t'; '\012'; '\r'; '\n' ]) (G.int_range 1 3)) ]

(* 1-4 space-separated parts, well formed or not, with bad versions *)
let request_line =
  let open G in
  let meth = oneofl [ "GET"; "post"; "DELETE"; ""; "G ET" ] in
  let target = oneofl [ "/"; "/predict"; "/a?b=c&&d"; "/%41%zz?x=%20+y&=q"; "?"; "" ] in
  let version = oneofl [ "HTTP/1.1"; "HTTP/1.0"; "HTTP/1.2"; "http/1.1"; "HTTP/1.1x"; "HTTP/" ] in
  let+ n = frequency [ (1, return 1); (1, return 2); (4, return 3); (1, return 4) ]
  and+ m = meth
  and+ t = target
  and+ v = version
  and+ extra = oneofl [ "x"; ""; "HTTP/1.1" ] in
  String.concat " " (List.filteri (fun i _ -> i < n) [ m; t; v; extra ])

let status_line =
  let open G in
  let version = oneofl [ "HTTP/1.1"; "HTTP/1.0"; "HTTP/"; "HTTPS/1.1"; "http/1.1" ] in
  let code = oneofl [ "200"; "404"; "-1"; "abc"; ""; "99999999999999999999"; "0x1F"; "2_00" ] in
  let+ n = int_range 1 4
  and+ v = version
  and+ c = code
  and+ r1 = oneofl [ "OK"; ""; "Not" ]
  and+ r2 = oneofl [ "Found"; "x:y" ] in
  String.concat " " (List.filteri (fun i _ -> i < n) [ v; c; r1; r2 ])

(* Duplicate, negative, non-numeric and huge lengths, chunking, lines
   without ':' and pads on both sides of the key and the value *)
let header_line =
  let open G in
  let key =
    frequency
      [ (4, oneofl [ "Content-Length"; "content-length"; "CONTENT-length" ]);
        (1, return "Transfer-Encoding");
        (3, oneofl [ "Host"; "X-A"; "Content-Type"; ""; "X-Pad" ]) ]
  in
  let value =
    frequency
      [ (4, oneofl [ "0"; "3"; "12"; "5" ]);
        (3,
         oneofl
           [ "-1"; "abc"; ""; "99999999999999999999"; "4611686018427387903"; "0x10"; "+2"; "1_0";
             "chunked"; "a:b" ]);
        (1, return (String.make 60 'v')) ]
  in
  let+ l = pad
  and+ k = key
  and+ kp = pad
  and+ sep = frequency [ (6, return ":"); (1, return "::"); (1, return "") ]
  and+ vp = pad
  and+ v = value
  and+ r = pad in
  l ^ k ^ kp ^ sep ^ vp ^ v ^ r

(* A head of either kind ended (or not) by a blank line, then a few body
   bytes; caps small enough that heads and bodies run over them *)
let malformed_gen =
  let open G in
  let+ first = oneof [ request_line; status_line ]
  and+ lpad = pad
  and+ rpad = pad
  and+ lines =
    list_size (int_range 0 5) (pair (oneofl [ "\r\n"; "\r\n"; "\n"; "\r" ]) header_line)
  and+ ending = frequency [ (6, return "\r\n\r\n"); (1, oneofl [ "\n\n"; "\r\n"; "" ]) ]
  and+ body = string_size ~gen:char (int_range 0 24)
  and+ max_header = frequency [ (3, return (16 * 1024)); (1, int_range 0 80) ]
  and+ max_body = frequency [ (3, return (1024 * 1024)); (1, int_range 0 16) ] in
  let head = String.concat "" (List.map (fun (sep, l) -> sep ^ l) lines) in
  (lpad ^ first ^ rpad ^ head ^ ending ^ body, max_header, max_body)

(* Both framers agree with the reference on every prefix of every
   generated input: the parsed record and bytes consumed, the length an
   [Incomplete] asks for, and the error with its text. *)
let prop_malformed_heads =
  QCheck.Test.make ~name:"malformed heads frame as the reference framer" ~count:600
    (QCheck.make
       ~print:(fun (s, mh, mb) -> Printf.sprintf "max_header %d, max_body %d: %S" mh mb s)
       malformed_gen)
    (fun (s, max_header, max_body) ->
      let rec go k =
        k > String.length s
        ||
        let p = String.sub s 0 k in
        Http.parse_request ~max_header ~max_body p
        = Reference.parse_request ~max_header ~max_body p
        && Http.parse_response ~max_header ~max_body p
           = Reference.parse_response ~max_header ~max_body p
        && go (k + 1)
      in
      go 0)

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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |]) prop_malformed_heads;
    QCheck_alcotest.to_alcotest prop_requests_socket;
    QCheck_alcotest.to_alcotest prop_responses_socket;
    Alcotest.test_case "read errors: Closed, Bad, Too_large" `Quick test_read_errors;
    Alcotest.test_case "connect sets TCP_NODELAY on TCP" `Quick test_connect_nodelay;
    Alcotest.test_case "address resolution is total" `Quick test_resolution_total;
  ]
