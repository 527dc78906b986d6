(* CRC-32 from several domains at once, as the first thing a fresh process
   does: the checksum table must already exist, because forcing a shared
   lazy value from two domains raises [CamlinternalLazy.Undefined].  The
   domains wait on a common start flag so their first calls overlap.  Exits
   non-zero on an exception or a wrong checksum. *)

let domains = 4
let check = "123456789"
let want = 0xcbf43926 (* CRC-32/IEEE of [check] *)

let () =
  let go = Atomic.make false in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Si_core.Crc32.string check))
  in
  Atomic.set go true;
  let got = List.map Domain.join workers in
  List.iteri
    (fun i crc ->
      if crc <> want then begin
        Printf.eprintf "crc_domains: domain %d computed %08x, want %08x\n" i crc
          want;
        exit 1
      end)
    got;
  Printf.printf "crc_domains: %d domains agree on %08x\n" domains want
