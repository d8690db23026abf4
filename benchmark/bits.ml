(* Bit-exact digests of measured numbers. Every float enters as its %h
   rendering, which is exact, so two digests agree only when every bit of
   every value agrees (-0.0 and 0.0 differ; so do NaN and infinity). *)

let add_floats buf a =
  Array.iter
    (fun v ->
      Buffer.add_string buf (Printf.sprintf "%h" v);
      Buffer.add_char buf ',')
    a;
  Buffer.add_char buf '|'

let of_floats arrays =
  let buf = Buffer.create 4096 in
  List.iter (add_floats buf) arrays;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let of_strings parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
