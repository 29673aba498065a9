(** Per-entry translation guards.

    When a translation is installed into the DTB buffer, the guard layer
    records (per program) the entry's DIR address, the buffer addresses
    of every word emitted for it — overflow-chain links included — and an
    order-dependent checksum over those words.  On every subsequent DTB
    hit the stored DIR address is compared against the requested one
    (catching tag-array corruption, which can make a stale or foreign
    entry answer for the wrong DIR instruction) and the checksum is
    recomputed from the live buffer words (catching buffer-word
    corruption).  The checksum provably detects any single-bit flip of a
    single word — see the proof sketch in [guard.ml] — so with guards
    enabled a corrupted translation is never executed.

    Recording an installation keeps a running checksum and appends the
    word addresses to a reused buffer; a check re-reads the live words
    without allocating.

    Cycle costs are charged by the caller (the resilience driver), which
    knows the machine and the [t_guard] timing parameter; this module is
    pure bookkeeping. *)

type t

val create : unit -> t

val begin_install : t -> unit
(** Start recording an installation (call where the DTB's
    [begin_translation] happens). *)

val on_emit : t -> addr:int -> word:int -> unit
(** A word was written into the buffer for the open installation.  A
    no-op when no installation is being recorded. *)

val finish_install : t -> dir_addr:int -> start_addr:int -> unit
(** Seal the open installation as the guard record for the entry that
    starts at [start_addr], translating [dir_addr].  Replaces any
    previous record at that address (the unit was re-used). *)

val abandon : t -> unit
(** Discard the open installation without recording it (the translator
    fault model: the install was dropped). *)

val check :
  t ->
  peek:(int -> int) ->
  dir_addr:int ->
  start_addr:int ->
  [ `Ok of int | `Mismatch | `Corrupt of int | `Unguarded ]
(** Verify a hit on the entry at [start_addr] requested for [dir_addr].
    [`Ok n] — checksum over [n] live words matches; [`Mismatch] — the
    record exists but guards a different DIR address (tag corruption);
    [`Corrupt n] — checksum mismatch after reading [n] words;
    [`Unguarded] — no record (a foreign or forged entry; treated as a
    detection by the caller). *)

val drop : t -> start_addr:int -> unit

val clear : t -> unit
(** Forget every record and any open installation (used at rollback,
    when the restored memory no longer matches the recorded sums). *)

val guarded : t -> int
(** Number of guarded entries. *)
