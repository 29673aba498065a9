(** The universal host machine, assembled: one entry point that runs a DIR
    program under each of the paper's machine configurations.

    - {!Interp}: the conventional UHM (paper §7 case 1) — fetch from
      level 2, decode, dispatch, execute; every instruction, every time.
    - {!Cached}: case 3 — the same interpreter with an instruction cache
      over the DIR stream.
    - {!Dtb_strategy}: case 2, the paper's contribution — a dynamic
      translation buffer holds PSDER translations of the working set;
      hits skip fetch and decode entirely.
    - {!Psder_static}: the whole program pre-translated to short-format
      code resident in level-2 memory (a PSDER as the {e static}
      representation; Figure 1's execution-time-optimal static point).
    - {!Der}: the expanded-machine-language representation, optionally
      level-2 resident (with or without an instruction cache) to model its
      size exceeding the fast store.

    All strategies execute the same semantic-routine library on the same
    simulated machine and must produce identical output. *)

module Machine := Uhm_machine.Machine
module Timing := Uhm_machine.Timing

type der_residence =
  | Der_level1                 (** host code in the fast store (idealised) *)
  | Der_level2                 (** every instruction fetch pays t2 *)
  | Der_level2_cached of int   (** icache of given capacity (bytes) *)

type strategy =
  | Interp
  | Cached of int              (** icache capacity in bytes *)
  | Dtb_strategy of Dtb.config
  | Dtb_blocks of Dtb.config * int
      (** like {!Dtb_strategy}, but the translator translates straight-line
          runs of up to the given number of DIR instructions into a single
          buffer entry — basic-block translation, the modern-JIT refinement
          of the paper's per-instruction units *)
  | Dtb_two_level of Dtb.config * int
      (** a fully-associative second-level decoded-instruction store of the
          given capacity (entries) behind the DTB: a translation miss that
          hits it skips the decode and pays only the generation cost —
          the paper's §4 "number of levels of dynamic translation" *)
  | Psder_static
  | Der of der_residence

val strategy_name : strategy -> string

type result = {
  strategy : strategy;
  status : Machine.status;
  output : string;
  cycles : int;
  machine_stats : Machine.stats;
  dir_steps : int;             (** DIR instructions executed (from the
                                   reference interpreter; all strategies
                                   execute the same instruction stream) *)
  dtb_hit_ratio : float option;
  dtb_misses : int option;
  dtb_evictions : int option;
  dtb_overflow_allocations : int option;
  dtb_emitted_words : int option;
  dtb_l2_hit_ratio : float option;
  icache_hit_ratio : float option;
  static_size_bits : int;      (** the program representation itself *)
  support_size_bits : int;     (** interpreter/translator code + decode
                                   tables + DTB buffer *)
}

val cycles_per_dir_instruction : result -> float

val dir_steps_reference : Uhm_dir.Program.t -> int
(** Run the reference DIR interpreter and count its steps (the pre-pass
    behind every result's [dir_steps] field). *)

val dir_steps_memoized : Uhm_dir.Program.t -> int
(** Like {!dir_steps_reference}, but cached on the program and shared
    across strategies and sweep workers — a sweep re-simulates each
    program once per strategy but pays the reference pre-pass only once
    per program, and the count is freed with the program. *)

val run : ?timing:Timing.t -> ?fuel:int -> ?layout:Uhm_psder.Layout.t
  -> ?backend:Machine.backend -> ?decode_assist:bool -> ?compound_datapath:bool
  -> ?runner:(Machine.t -> Machine.status) -> strategy:strategy
  -> kind:Uhm_encoding.Kind.t -> Uhm_dir.Program.t -> result
(** [run ~strategy ~kind p] encodes [p] with [kind] (ignored by
    {!Psder_static} and {!Der}, which work from the decoded program) and
    executes it to completion.

    What a run builds before its first cycle — the encoding, the
    generated interpreter or translator, the DER expansion, the PSDER
    image, the reference step count — is cached on [p] (or its encoding)
    and shared by every later run of the same value, on any domain; it
    is freed with the value.

    [backend] (default [`Decode]) selects the host execution backend; see
    {!Machine.backend}.  [`Threaded] produces identical results and
    statistics, only faster in host wall-clock time.  For DTB strategies
    short words in the translation buffer are compiled too; a closure
    lives until its word is rewritten, which every new translation into
    that slot does.

    [decode_assist] (interpreted and DTB strategies only) replaces the
    software decode routine with a single-instruction hardware decode unit —
    the paper's §8 alternative to the DTB ("powerful hardware aids to the
    decoding process", i.e. random logic instead of memory).

    [runner] (default [Machine.run]) performs the actual execution; pass a
    loop over [Machine.run_for]/[run_dir_quantum] to exercise sliced
    execution — any runner that drives the machine out of [Running]
    produces a bit-identical result. *)

val run_encoded : ?timing:Timing.t -> ?fuel:int -> ?layout:Uhm_psder.Layout.t
  -> ?backend:Machine.backend -> ?decode_assist:bool -> ?compound_datapath:bool
  -> ?runner:(Machine.t -> Machine.status) -> strategy:strategy
  -> Uhm_encoding.Codec.encoded -> result
(** Like {!run} for a pre-encoded program (avoids re-encoding in sweeps).
    Raises [Invalid_argument] for {!Psder_static}/{!Der}, which do not take
    an encoding. *)

val prepare_dtb_shared : ?timing:Timing.t -> ?fuel:int
  -> ?layout:Uhm_psder.Layout.t -> ?backend:Machine.backend
  -> dtb:Dtb.t -> Uhm_encoding.Codec.encoded -> Machine.t
(** Set up (but do not run) a machine that executes [encoded] against a
    {e shared} DTB owned by the caller, with the plain INTERP hook and no
    taps: {!prepare_dtb_custom} without the fault machinery.  The slicing
    drivers build their machines through [prepare_dtb_custom] (see
    [Uhm_fault.Tenant]).  The DTB must have been created at buffer base
    [layout.dtb_buffer_base + 1] (the word after the bootstrap INTERP).
    Each program gets its own machine and memory image at the same
    layout, so a shared entry's buffer address is valid in every address
    space; the programs contend for the translation {e directory} (tags,
    capacity, overflow blocks), and a program only ever executes
    translations it installed itself.  The caller drives execution with
    [Machine.run_dir_quantum] and owns [Dtb.switch_to] at context
    switches.  On the threaded backend the machine opens its short-word
    compile window over the buffer region; the DTB keeps no reference to
    the machine, since an entry's death changes no memory and leaves
    every compiled word valid. *)

val prepare_dtb_custom : ?timing:Timing.t -> ?fuel:int
  -> ?layout:Uhm_psder.Layout.t -> ?backend:Machine.backend
  -> ?on_emit:(addr:int -> word:int -> unit)
  -> ?on_end_translation:(start_addr:int -> unit)
  -> make_interp:(translator_entry:int ->
                  Machine.t -> dir_addr:int -> dctx:int -> unit)
  -> dtb:Dtb.t -> Uhm_encoding.Codec.encoded -> Machine.t * int
(** The general form of {!prepare_dtb_shared}: the caller supplies the
    INTERP hook itself (given the generated translator's entry point —
    also returned, so the hook can be swapped later) and may observe
    every word written into the translation buffer ([on_emit], fired for
    emitted words {e and} overflow-chain links) and every completed
    translation ([on_end_translation], fired with the entry's start
    address before control transfers to it).  The resilience layer's
    per-entry guards and fault hooks are built on these taps.  With the
    default no-op taps and a [make_interp] that performs the plain
    lookup/translate protocol, the machine is cycle-identical to
    {!prepare_dtb_shared}'s — which is itself now a thin wrapper. *)

val prepare_interp : ?timing:Timing.t -> ?fuel:int
  -> ?layout:Uhm_psder.Layout.t -> ?backend:Machine.backend
  -> Uhm_encoding.Codec.encoded -> Machine.t
(** Set up (but do not run) a plain interpreter machine (no icache, no
    decode assist, no compound datapath) for [encoded] — the watchdog's
    {e downgrade} target when dynamic translation is demoted to pure DIR
    interpretation.  The machine is returned suspended at the
    interpreter's entry with [dpc] at the program entry; a caller grafting
    mid-flight state overwrites the registers, stacks and data region
    before resuming it with [Machine.run_for]. *)
