(** The dynamic translation buffer (paper §5, Figure 2).

    A set-associative structure mapping DIR instruction addresses to the
    buffer-array locations of their PSDER translations:

    - the {e associative tag array} holds DIR addresses;
    - the {e address array} holds buffer pointers (kept explicit, as in the
      paper, to allow variable allocation);
    - the {e replacement array} keeps true-LRU order per set;
    - the {e buffer array} is a region of the machine's level-1 memory.

    Allocation is the paper's "variable allocation with fixed size
    increments" (§5.1): each entry owns one primary unit of
    [unit_words] words; a translation that outgrows it is chained through
    GOTO words into blocks taken from an overflow area.  With
    [unit_words - 1] no smaller than the longest translation the scheme
    degenerates to the paper's simple fixed allocation. *)

type t

type config = {
  sets : int;            (** power of two *)
  assoc : int;           (** ways per set; 0 = fully associative *)
  unit_words : int;      (** words per allocation unit, including the
                             reserved chain slot; at least 2 *)
  overflow_blocks : int; (** blocks available for chaining *)
}

val config_capacity_words : config -> int
(** Total buffer words: primary units plus overflow area. *)

val paper_config : config
(** 4-way, 4-word units; capacity comparable to the paper's 4096-byte
    instruction cache at 16 bits per short word. *)

(** How a DTB shared between several programs (address spaces) resolves
    ownership of its entries:

    - [Flush_on_switch]: the tag array is cleared on every context switch,
      as on a host with untagged translations.  Simple, and each program
      always sees a cold buffer after a switch.
    - [Tagged]: an ASID is folded into the stored tag (never into the set
      hash, exactly as in an ASID-tagged TLB), so all programs'
      translations stay resident and compete for capacity.  A program's
      set mapping is identical to the one it would see on a private DTB.
    - [Partitioned]: each program owns a contiguous range of sets
      ([sets / programs] each, remainder spread from ASID 0); programs
      cannot evict each other but each sees only a fraction of the
      capacity.  Tags are still ASID-qualified so two programs with equal
      DIR addresses can never alias. *)
type policy =
  | Flush_on_switch
  | Tagged
  | Partitioned

val policy_name : policy -> string
(** ["flush"], ["tagged"], ["partitioned"]. *)

val create : ?last_cache:bool -> config -> buffer_base:int -> t
(** [last_cache] (default [true]) enables the single-entry "last
    translation" cache in front of the tag array: a lookup of the tag
    that hit (or was installed) most recently skips the set hash and way
    scan.  The shortcut performs exactly the statistics and LRU-recency
    updates of the full probe; disabling it exists for differential
    testing. *)

val create_shared :
  ?last_cache:bool ->
  policy:policy ->
  programs:int ->
  config ->
  buffer_base:int ->
  t
(** A DTB shared between [programs] address spaces under [policy].  ASID 0
    is current initially; use {!switch_to} at context switches.  With
    [programs = 1] every policy degenerates to a private DTB (no ASID
    bits, full capacity).  [Partitioned] requires [programs <= sets]. *)

val buffer_words : t -> int

val lookup_addr : t -> tag:int -> int
(** [lookup_addr t ~tag] searches the set selected by hashing [tag].  On a
    hit, returns the buffer address of the translation (never negative)
    and promotes the entry to most-recently-used; on a miss, returns [-1]
    and installs nothing — call {!begin_translation}.  Allocates nothing,
    so it is the call for per-INTERP paths. *)

val lookup : t -> tag:int -> [ `Hit of int | `Miss ]
(** {!lookup_addr} with the answer boxed: [`Hit addr] or [`Miss], the same
    statistics and recency updates.  Allocates on every hit. *)

val begin_translation : t -> tag:int -> unit
(** Choose the LRU victim of [tag]'s set, release its overflow chain, store
    the new tag, and reset the emission cursor to the entry's primary
    unit. *)

val emit : t -> int -> int * (int * int) list
(** [emit t word] appends [word] to the open translation and returns
    [(address_written, chain_writes)] where [chain_writes] are
    [(address, goto_word)] pairs the hardware wrote to link an overflow
    block.  The caller pokes all the words into the buffer region and
    charges their write time.  Raises [Failure] if the overflow area is
    exhausted or no translation is open. *)

val end_translation : t -> int
(** Close the open translation and return its start address. *)

val abort_translation : t -> unit
(** Discard the open translation: drop the directory entry installed by
    {!begin_translation} and return its overflow chain to the free list,
    as if the miss had never been serviced.  For recovery paths where
    the translating machine stopped mid-install and the translation will
    never be completed — {!flush}, {!invalidate} and {!invalidate_asid}
    all refuse while a translation is open.  Raises [Failure] if no
    translation is open. *)

(** {2 Multiprogramming} *)

val switch_to : t -> asid:int -> unit
(** Make [asid]'s translations the ones served by {!lookup} and installed
    by {!begin_translation}.  A no-op if [asid] is already current; under
    [Flush_on_switch] an actual switch performs a {!flush}.  Raises
    [Invalid_argument] on a private DTB or an out-of-range ASID. *)

val flush : t -> unit
(** Invalidate every entry and restore the buffer to its creation state
    exactly: per-way replacement order, canonical overflow free-list
    order, and the last-translation cache are all reset, so execution
    after a flush is indistinguishable from execution on a fresh DTB.
    Cumulative statistics survive; the flush itself is counted in
    {!flushes}.  Raises [Failure] if a translation is open. *)

val invalidate_asid : t -> asid:int -> int
(** Drop every entry owned by [asid] (releasing its overflow chains) and
    return how many were dropped.  The last-translation cache is cleared
    if it pointed at one of them.  Only meaningful on a [Tagged] or
    [Partitioned] shared DTB; raises [Invalid_argument] otherwise. *)

val sharing : t -> policy option
(** [None] for a private DTB. *)

(** {2 Resilience hooks}

    Targeted invalidation (the recovery path after a guard detection) and
    deterministic tag-array corruption (the fault injector's model of a
    single-event upset in the associative array).  Both keep the
    last-translation shortcut coherent with the tag array: corruption
    updates a mirrored key, invalidation clears it. *)

val invalidate : t -> tag:int -> bool
(** Drop the entry (or, after tag corruption, entries) whose stored key
    matches [tag] under the current ASID, releasing overflow chains.
    Returns whether anything was dropped.  Raises [Failure] if a
    translation is open. *)

val corrupt_resident_tag : t -> pick:int -> flip:int -> (int * int) option
(** Flip one bit of a resident entry's stored key: the entry is chosen by
    [pick] (mod the resident count, in scan order) and the bit by [flip]
    (mod the meaningful key width, including ASID bits).  Returns
    [Some (old_key, new_key)], or [None] when nothing is resident.  The
    original tag now misses (a lost installation) and the corrupted key
    may falsely hit — which the resilience layer's per-entry guards must
    catch.  Raises [Failure] if a translation is open. *)

val current_asid : t -> int

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val hit_ratio : t -> float
val evictions : t -> int
val overflow_allocations : t -> int

val flushes : t -> int
(** Whole-buffer flushes performed (explicit or by [Flush_on_switch]
    context switches).  Not reset by {!reset_stats}. *)

val resident_entries : t -> int
val reset_stats : t -> unit

(** {2 Per-ASID idle/footprint accounting}

    Inputs to the load service's eviction economy: which resident address
    spaces are cold, and how much of the directory they hold.  Time is
    the DTB's internal recency clock (one tick per lookup hit or
    installation), so idleness is measured in translation activity, not
    simulated cycles. *)

val use_clock : t -> int
(** The current recency-clock value ("now" for idleness arithmetic). *)

val asid_last_use : t -> asid:int -> int
(** The recency-clock stamp of [asid]'s most recent lookup hit or
    installation; [0] if it never touched the DTB.  Survives {!flush}
    (activity history is accounting, not directory state).  Raises
    [Invalid_argument] on an out-of-range ASID. *)

val asid_footprint : t -> asid:int -> int
(** Resident directory entries owned by [asid], by exact scan.  On an
    untagged DTB ([Flush_on_switch] or private) everything resident
    belongs to the current ASID.  Raises [Invalid_argument] on an
    out-of-range ASID. *)
