(* Built eagerly at module initialisation: a [lazy] table raises
   [CamlinternalLazy.Undefined] when two domains force it at once. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

type t = int

let empty = 0xffffffff

let feed_substring crc s pos len =
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc

let feed_string crc s = feed_substring crc s 0 (String.length s)

let feed_bigsub crc (m : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t)
    pos len =
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table
        ((!crc lxor Char.code (Bigarray.Array1.unsafe_get m i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc

let value crc = crc lxor 0xffffffff
let string s = value (feed_string empty s)
let substring s pos len = value (feed_substring empty s pos len)

let bigsub m pos len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim m - len then
    invalid_arg "Crc32.bigsub";
  value (feed_bigsub empty m pos len)
