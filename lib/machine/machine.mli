(** The universal host machine simulator.

    Executes long-format host code (IU1) and short-format words (IU2) over a
    single word-addressed memory with region-based access times, counting
    cycles exactly as paper §7 does: one cycle per host instruction (the
    level-1 access time is the time unit), plus memory access times by
    region, plus DIR instruction-stream fetch charges per 16-bit unit
    (optionally through an instruction cache).

    The DTB itself lives outside (in [uhm_core]); the machine calls back
    through {!hooks} on INTERP, EmitShort and EndTrans. *)

type t

type pc =
  | Long of int    (** executing long-format code at this address (IU1) *)
  | Short of int   (** executing short words at this memory address (IU2) *)

type status =
  | Running
  | Halted
  | Trapped of string
  | Out_of_fuel

type region = {
  rname : string;
  base : int;
  size : int;
  cost : int;     (** access time in cycles *)
}

type hooks = {
  h_interp : t -> dir_addr:int -> dctx:int -> unit;
  (** INTERP executed; must set the pc (hit) or arrange translation (miss)
      and charge cycles via {!add_cycles}. *)
  h_emit_short : t -> int -> unit;
  (** EmitShort executed with the given word. *)
  h_end_trans : t -> unit;
  (** EndTrans executed. *)
  h_decode_assist : t -> unit;
  (** DecodeAssist executed: decode the DIR instruction at the dpc register
      into r8-r11, advance dpc, and charge the assist-unit time plus
      {!charge_dir_span} for the stream units touched. *)
}

type dir_fetch_mode =
  | Dir_uncached          (** every 16-bit unit costs the level-2 time *)
  | Dir_cached of Cache.t (** units go through an instruction cache *)

type backend = [ `Decode | `Threaded ]
(** How host instructions are executed.  [`Decode] (the default and the
    reference semantics) re-decodes every instruction on every execution.
    [`Threaded] compiles long-format code — and, inside a window opened
    with {!enable_short_compile}, installed short-format words — into
    pre-bound OCaml closures dispatched directly, the paper's DIR→PSDER
    move applied to the simulator's own host loop.  The two backends are
    observably identical (cycles, statistics, traps, output, final state)
    on every program; [`Threaded] only changes host wall-clock time. *)

type stats = {
  mutable cycles : int;
  mutable host_instrs : int;
  mutable short_instrs : int;
  cat_cycles : int array;          (** per {!Asm.category}, in declaration order *)
  mutable dir_units_fetched : int;
  mutable dir_fetch_cycles : int;
  mutable short_fetch_cycles : int;(** cycles fetching short words *)
  mutable code_fetch_cycles : int; (** extra host-code fetch cost (DER in level 2) *)
  mutable stack_cycles : int;      (** operand/return stack traffic *)
  mutable interp_count : int;      (** INTERP executions *)
}

val category_index : Asm.category -> int

val create : ?timing:Timing.t -> ?fuel:int -> ?backend:backend
  -> program:Asm.program -> mem_words:int -> regions:region list -> unit -> t
(** [fuel] bounds total cycles (default one billion).  Regions must be
    disjoint and within [mem_words]; accesses outside any region trap.
    [backend] (default [`Decode]) selects the execution backend. *)

val backend : t -> backend

val enable_short_compile : t -> base:int -> size:int -> unit
(** Open the threaded backend's short-word compile window over
    [base, base+size): short words executed inside it are compiled to
    closures on their second execution (the first interprets the word, as
    [`Decode] does) and cached until the word is overwritten or
    {!restore} rewinds memory.  Every write to memory (guest stores,
    {!poke}, DTB emission) goes through one funnel that resets the
    written word's slot, and a closure depends only on its word and
    address, so no other event (a DTB entry's eviction, say) needs to
    drop anything.  A no-op on [`Decode] machines or when [size <= 0];
    raises [Invalid_argument] if the window exceeds memory. *)

val set_hooks : t -> hooks -> unit
val set_dir_stream : t -> bits:string -> mode:dir_fetch_mode -> unit
val set_code_fetch_hook : t -> (int -> int) -> unit
(** [set_code_fetch_hook m f] adds [f addr] cycles when fetching the long
    instruction at [addr] (models DER code living in level-2 memory). *)

val timing : t -> Timing.t
val reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val peek : t -> int -> int
(** Read memory without charging cycles (setup/inspection). *)

val poke : t -> int -> int -> unit
(** Write memory without charging cycles (setup). *)

val mem_cost : t -> int -> int
(** The access time of an address; raises [Not_found] if unmapped. *)

val add_cycles : t -> int -> unit
(** Charge extra cycles (used by hooks for DTB lookup time). *)

val charge_dir_span : t -> first_bit:int -> last_bit:int -> unit
(** Charge the IFU for the 16-bit units covering the given bit range (used
    by the decode-assist hook). *)

val charge_mem : t -> int -> unit
(** Charge a memory access to [stack_cycles]-independent bookkeeping: adds
    [mem_cost] cycles (used by hooks when they touch memory on the
    machine's behalf). *)

val set_pc : t -> pc -> unit
(** Set the pc.  The caller allocates the [pc] it passes; a per-INTERP
    path uses {!set_short_pc}. *)

val set_short_pc : t -> int -> unit
(** [set_short_pc t a] is [set_pc t (Short a)] without the allocation:
    the transfer an INTERP hit or a finished translation makes. *)

val pc : t -> pc
val status : t -> status
val stats : t -> stats
val output : t -> string
val run : t -> status
(** Execute until halt, trap or fuel exhaustion. *)

(** {2 Resumable execution}

    Slice-wise execution for the multiprogramming scheduler.  {!run} and
    both entry points below execute in spans on the machine's backend:
    runs of instructions with one trap handler per span, bounded by the
    fuel, the slice's cycle budget or its INTERP quota.  A span stops only
    on an instruction boundary and executes exactly the {!step}s a plain
    [step] loop would (pinned by [test/test_machine.ml] on programs that
    trap or run out of fuel mid-span), so running a program in K slices —
    for any K and any mix of slice boundaries — leaves bit-identical
    state, statistics and output to a single {!run}. *)

type run_outcome =
  | Done of status (** the program left [Running] during this slice *)
  | Yielded        (** the slice expired; call again to continue *)

val run_for : t -> budget:int -> run_outcome
(** Execute until at least [budget] more cycles have been charged (the
    slice ends after the instruction that crosses the budget: instructions
    are atomic) or the program stops.  Edge cases are pinned by
    [test/test_resume.ml]: [budget = 0] executes nothing and returns
    [Yielded] (0 cycles of progress) on a running machine; a negative
    budget raises [Invalid_argument]; a budget that would overflow the
    cycle counter saturates, so [budget = max_int] always means "run to
    completion".  On a machine that has already left [Running], any legal
    budget returns [Done status] immediately without executing. *)

val run_dir_quantum : t -> quantum:int -> run_outcome
(** Execute until [quantum] DIR instructions (INTERP transfers) have
    completed {e and} the pc rests on the next INTERP word.  INTERP
    boundaries are the safe preemption points when the translation buffer
    is shared: between them the pc can sit inside a DTB unit that another
    program's translations could evict.  [quantum] must be at least 1:
    a quantum of 0 or negative raises [Invalid_argument] (a zero-DIR-step
    slice cannot end on an INTERP boundary it never reaches); a quantum no
    less than the program's remaining [dir_steps] runs it to completion in
    one slice.  On a machine that has already left [Running], a legal
    quantum returns [Done status] immediately without executing. *)

type snapshot = {
  snap_pc : pc;
  snap_status : status;
  snap_regs : int array;       (** copy of the register file *)
  snap_cycles : int;
  snap_interp_count : int;
  snap_op_stack : int list;    (** operand stack, top first *)
  snap_ret_stack : int list;   (** return stack, top first *)
}

val snapshot : t -> snapshot
(** Capture the resumption state of a (possibly suspended) program without
    charging cycles.  Stack contents are read from the regions the stack
    pointers rest in. *)

(** {2 Checkpoints}

    Full-state capture for the resilience layer's rollback-and-replay
    recovery (fault injection on level-1 memory).  Unlike {!snapshot},
    which is an inspection record, a {!checkpoint} can be {!restore}d:
    it captures every written memory page plus the register file, pc,
    status, output length and the IFU's buffered unit.  Memory is
    copy-on-write: a checkpoint shares the machine's pages instead of
    copying them, and the machine copies a shared page before it next
    writes it, so a checkpoint never changes after it is taken.  A
    checkpoint lists only the written pages; the copy granule is 512
    words, finer than the 4,096-word page a checkpoint is charged for
    (see {!checkpoint_pages}). *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture restorable state; charges no cycles and copies no page.
    Statistics are deliberately {e not} captured: a later {!restore}
    leaves the cycle and instruction counters running forward, so
    replayed work is re-charged and the cost of a rollback stays visible
    in the accounts. *)

val restore : t -> checkpoint -> unit
(** Rewind the machine to the captured state: memory pages (pages written
    since the checkpoint revert to zero), registers, pc, status, buffered
    IFU unit, and the output buffer (truncated to its checkpointed
    length).  The machine shares the checkpoint's pages again, copying
    each on its next write, so one checkpoint can be restored any number
    of times; every compiled short-word closure is reset.  Statistics
    are left untouched — see {!checkpoint}.  Meant for the machine the
    checkpoint was taken from (or a fresh one of the same program and
    memory size). *)

val checkpoint_pages : checkpoint -> int
(** Number of 4,096-word memory pages holding a word written before the
    checkpoint, which sets its cost: the resilience layer charges a
    level-2 transfer per page, as if each were copied.  The count does not
    depend on the host's copy granule. *)

val recycle : t -> unit
(** Return the machine's own pages (a page it shares with a
    {!checkpoint} stays with the checkpoint) and its page table to a
    domain-local pool reused by subsequent {!create} calls on the same
    domain (grid sweeps build thousands of machines; pooling keeps that
    churn out of the GC).  The machine must not be used afterwards.
    Recycled storage is re-zeroed on reuse, so pooling never changes
    simulated behaviour. *)

val step : t -> unit
(** Execute one instruction (long or short); no-op unless [Running]. *)
