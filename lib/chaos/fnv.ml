let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) prime

let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let string s = add_string offset s
let hex s = Printf.sprintf "%016Lx" (string s)
