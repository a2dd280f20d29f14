module Bitval = Moard_bits.Bitval

type t = { data : Bytes.t }

let null_guard = 256

let create ~bytes =
  if bytes <= null_guard then invalid_arg "Memory.create: too small";
  { data = Bytes.make bytes '\000' }

let size t = Bytes.length t.data

let copy t = { data = Bytes.copy t.data }

let blit ~src ~dst =
  if Bytes.length src.data <> Bytes.length dst.data then
    invalid_arg "Memory.blit: size mismatch";
  Bytes.blit src.data 0 dst.data 0 (Bytes.length src.data)

let in_range t addr size =
  addr >= null_guard && addr + size <= Bytes.length t.data

let load t ty addr =
  let sz = Moard_ir.Types.size ty in
  if not (in_range t addr sz) then Error (Trap.Out_of_bounds { addr; size = sz })
  else
    let bits =
      match sz with
      | 1 -> Int64.of_int (Char.code (Bytes.get t.data addr))
      | 4 -> Int64.of_int32 (Bytes.get_int32_le t.data addr)
      | _ -> Bytes.get_int64_le t.data addr
    in
    Ok (Bitval.make (Moard_ir.Types.width ty) bits)

let store t ty addr v =
  let sz = Moard_ir.Types.size ty in
  if not (in_range t addr sz) then Error (Trap.Out_of_bounds { addr; size = sz })
  else begin
    let bits = (v : Bitval.t).bits in
    (match sz with
    | 1 -> Bytes.set t.data addr (Char.chr (Int64.to_int bits land 0xFF))
    | 4 -> Bytes.set_int32_le t.data addr (Int64.to_int32 bits)
    | _ -> Bytes.set_int64_le t.data addr bits);
    Ok ()
  end

let load_exn t ty addr =
  match load t ty addr with
  | Ok v -> v
  | Error trap -> invalid_arg ("Memory.load_exn: " ^ Trap.to_string trap)

let store_exn t ty addr v =
  match store t ty addr v with
  | Ok () -> ()
  | Error trap -> invalid_arg ("Memory.store_exn: " ^ Trap.to_string trap)
