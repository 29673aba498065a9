(* Per-entry translation guards; see guard.mli.

   The checksum is an order-dependent polynomial mix over the words in
   emission order, masked to 58 bits.  Single-bit flips are provably
   detected: flipping bit b of the k-th-from-last word changes the sum by
   131^k * 2^b mod 2^58, and since 131^k is odd that product has exactly
   2^b as its power-of-two factor — never 0 mod 2^58. *)

let sum_mask = (1 lsl 58) - 1

let mix h w = ((h * 131) + w) land sum_mask

type verdict = [ `Ok of int | `Mismatch | `Corrupt of int | `Unguarded ]

type record = {
  g_dir_addr : int;
  g_addrs : int array; (* every buffer word of the entry, emission order,
                          including overflow-chain GOTO link words *)
  g_sum : int;
  g_ok : verdict;      (* [check]'s two answers for this record, built once
                          so a guarded hit allocates nothing *)
  g_corrupt : verdict;
}

type t = {
  tbl : (int, record) Hashtbl.t; (* keyed by entry start (unit) address *)
  (* the open installation: its running checksum and its addresses so far *)
  mutable installing : bool;
  mutable sum : int;
  mutable addrs : int array;
  mutable len : int;
}

let create () =
  { tbl = Hashtbl.create 64; installing = false; sum = 0;
    addrs = Array.make 64 0; len = 0 }

let begin_install t =
  t.installing <- true;
  t.sum <- 0;
  t.len <- 0

let on_emit t ~addr ~word =
  if t.installing then begin
    if t.len = Array.length t.addrs then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.addrs 0 bigger 0 t.len;
      t.addrs <- bigger
    end;
    Array.unsafe_set t.addrs t.len addr;
    t.len <- t.len + 1;
    t.sum <- mix t.sum word
  end

let finish_install t ~dir_addr ~start_addr =
  if t.installing then begin
    t.installing <- false;
    let n = t.len in
    Hashtbl.replace t.tbl start_addr
      { g_dir_addr = dir_addr; g_addrs = Array.sub t.addrs 0 n; g_sum = t.sum;
        g_ok = `Ok n; g_corrupt = `Corrupt n }
  end

let abandon t = t.installing <- false

let check t ~peek ~dir_addr ~start_addr : verdict =
  match Hashtbl.find t.tbl start_addr with
  | exception Not_found -> `Unguarded
  | r ->
      if r.g_dir_addr <> dir_addr then `Mismatch
      else begin
        let addrs = r.g_addrs in
        let sum = ref 0 in
        for i = 0 to Array.length addrs - 1 do
          sum := mix !sum (peek (Array.unsafe_get addrs i))
        done;
        if !sum = r.g_sum then r.g_ok else r.g_corrupt
      end

let drop t ~start_addr = Hashtbl.remove t.tbl start_addr

let clear t =
  Hashtbl.reset t.tbl;
  t.installing <- false

let guarded t = Hashtbl.length t.tbl
