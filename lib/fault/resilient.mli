(** The closed-mix driver: a fixed program mix time-sliced over one
    shared DTB, with fault injection, guarded translations and recovery
    over the dynamic-translation path.

    The driver owns the global virtual clock, asks
    {!Uhm_sched.Scheduler.pick} which program runs next (round-robin by
    default), performs every context switch through
    {!Uhm_sched.Scheduler.switch}, and hands every slice to the
    {!Tenant} engine, which threads three resilience layers through the
    hook points:

    - {b Injection} ({!Injector}): at every INTERP boundary, faults due
      at the current DIR step are applied — DTB tag-key bit flips,
      translation-buffer word bit flips, dropped translator installs,
      and level-1 data-word bit flips.  With {!zero} the run is the plain
      multiprogrammed mix, and one program alone at {!solo_quantum} is
      the solo run ({!solo}) that mix slowdowns and served answers are
      measured against.  Each program draws from the injector stream
      keyed by its ASID.

    - {b Detection and recovery}: per-entry {!Guard} checksums are
      verified on every DTB hit (cost [t_guard] per word, charged to the
      machine); a mismatch invalidates the entry and retranslates, with
      per-DIR-address retry counting and exponential cycle backoff.
      Data-word faults are caught by a scrub at slice boundaries and
      recovered by rolling back to the last [Machine.checkpoint] and
      replaying (the replayed cycles stay in the accounts, so recovery
      cost is visible).  Consumed fault arrivals never re-fire during
      replay: the injector is keyed on the monotonic INTERP count.
      Without guards, corruption can make a machine die with a host
      exception; the program then ends [Trapped] instead of the driver
      raising.

    - {b Graceful degradation}: a watchdog counts recovery events
      (detections and rollbacks) over a sliding window of DIR steps;
      past the threshold — or when one DIR address exhausts its retry
      budget — the program is {e downgraded} at the next slice boundary:
      its architectural state (stacks, frames, data, decode position) is
      grafted onto a fresh pure-interpretation machine (the paper's §7
      crossover as a fallback) and it finishes without the DTB.  Fault
      injection and checkpointing stop for a downgraded program; its
      cycles and output accumulate across the transition.

    The headline invariant, pinned by QCheck in [test/test_fault.ml]:
    with guards on (and checkpoints on when memory faults are possible),
    the final architectural state and output of every program equal the
    fault-free run's, at every point of the campaign grid. *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb
module Trace := Uhm_sched.Trace
module Scheduler := Uhm_sched.Scheduler

type config = Tenant.config = {
  injector : Injector.spec;
  guards : bool;                  (** verify per-entry checksums on hits *)
  checkpoint_every : int option;  (** DIR steps between checkpoints;
                                      required when the injector can
                                      produce [Mem_word] faults *)
  retry_limit : int;              (** per-DIR-address detections before a
                                      forced downgrade *)
  backoff_cycles : int;           (** base of the exponential recovery
                                      backoff (doubles per attempt,
                                      capped at 64x) *)
  watchdog_window : int;          (** sliding window, in DIR steps *)
  watchdog_threshold : int;       (** recovery events within the window
                                      that trigger a downgrade *)
}

val zero : config
(** No faults, no guards, no checkpoints: the plain multiprogrammed
    mix.  Because slicing stops only at INTERP boundaries and the shared
    DTB under every policy serves a program the translations it
    installed itself, each program's output under [zero] is identical to
    its solo run; only cycle counts and DTB statistics change with
    contention.  With [quantum >=] every program's [pr_dir_steps]
    nothing is preempted, and per-program cycles equal the solo run's
    exactly (under [Flush_on_switch] trivially; under [Tagged] /
    [Partitioned] because the set mapping a program sees is unchanged
    and foreign entries only occupy ways it has not yet claimed). *)

val protected : ?checkpoint_every:int -> Injector.spec -> config
(** Guards on, checkpoints on iff the spec can produce [Mem_word]
    faults (default cadence 1024 DIR steps), default retry/watchdog
    parameters. *)

type program_report = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;      (** across a downgrade transition, if any *)
  pr_dir_steps : int;   (** reference DIR step count (the SRTF
                            estimate's total) *)
  pr_slices : int;
  pr_dtb_hits : int;    (** DTB lookups during this program's slices *)
  pr_dtb_misses : int;
  pr_dtb_evictions : int;  (** evictions {e performed during} this
                               program's slices (the victims may have
                               belonged to anyone) *)
  pr_arch_hash : int;   (** fingerprint of sp/fp/dtop, the live operand
                            stack and the live data region — the
                            recovery invariant's state summary *)
  pr_downgraded : bool;
  pr_injected : int;
  pr_detected : int;
  pr_retries : int;
  pr_rollbacks : int;
}

type result = {
  rr_policy : Dtb.policy;
  rr_scheduler : Scheduler.policy;
  rr_quantum : int;
  rr_config : Dtb.config;
  rr_fconfig : config;
  rr_programs : program_report list;
  rr_makespan : int;    (** global virtual time at the last completion *)
  rr_switches : int;    (** dispatches of a different program *)
  rr_flushes : int;
  rr_hit_ratio : float; (** over all programs' lookups *)
  rr_evictions : int;
  rr_trace : Trace.t;
}

val run_encoded :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  fconfig:config ->
  (string * Uhm_encoding.Codec.encoded) list ->
  result
(** Slice the mix to completion under [scheduler] (default
    {!Uhm_sched.Scheduler.Round_robin}) with [quantum] DIR steps per
    slice (a downgraded program is sliced by an equivalent cycle
    budget); programs get ASIDs 0..n-1 in list order.  [trace_capacity]
    bounds the event ring (default 65536).
    [backend] (default [`Decode]) selects every machine's execution
    backend, including a downgraded program's replacement interpreter;
    under a zero-fault injector the two backends are result- and
    trace-identical.  The threaded backend's compiled closures are
    reset by every write to their word (an injected bit flip included)
    and by every rollback, so fault recovery never executes a stale
    closure.
    Raises [Invalid_argument] on an empty mix, a quantum below 1, or a
    spec that can produce [Mem_word] faults without [checkpoint_every]. *)

val run :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  fconfig:config ->
  kind:Uhm_encoding.Kind.t ->
  (string * Uhm_dir.Program.t) list ->
  result
(** {!run_encoded} after encoding each program with [kind]. *)

(** {1 The solo run} *)

val solo_quantum : int
(** A quantum larger than any program ([max_int]): no preemption ever
    fires, so round-robin degenerates to sequential execution and every
    program reproduces its solo cycle count exactly. *)

type solo_result = {
  sr_status : Machine.status;
  sr_output : string;
  sr_arch_hash : int;
  sr_cycles : int;
}

val solo :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  config:Dtb.config ->
  Uhm_encoding.Codec.encoded ->
  solo_result
(** The program run alone: {!run_encoded} of the one program under
    [Flush_on_switch] at {!solo_quantum} and {!zero}, on a [config]
    geometry of its own.  Its cycles are the denominator of every
    slowdown (a closed mix's and a served job's) and its status, output
    and arch fingerprint the reference every served answer is verified
    against.  It equals the single-program
    [Uhm.run_encoded ~strategy:(Dtb_strategy config)] run in cycles,
    status and output.  Cached on the encoding, keyed structurally on
    [config], [timing], [fuel] and [layout] after defaults are applied;
    [backend] is not in the key because the two backends are
    result-identical.  A grid or a service thus pays for each distinct
    solo run once for as long as it holds the encoding, on any domain,
    and the result is freed with the encoding. *)

val slowdown : cycles:int -> solo:int -> float
(** [cycles / solo], the price of sharing the machine; [1.0] when [solo]
    is 0.  The solo denominator always uses the {e full} geometry, so
    the metric prices everything sharing costs: exactly 1.0 at
    {!solo_quantum} under [Flush_on_switch] (each program starts cold
    with the whole buffer — precisely the solo run), and under the other
    policies whenever the geometry still leaves each program its working
    set.  Under [Partitioned] at a tight geometry it exceeds 1.0 {e even
    without preemption}: the shrunken partition itself is a cost of
    sharing, and the metric deliberately charges for it. *)

val interp_cycles_per_dir : int
(** Cycles one DIR instruction of pure interpretation is worth: the
    factor that turns a DIR-step quantum into the cycle budget a
    downgraded (run_for-sliced) machine is given per slice. *)

val graft_interp : layout:Uhm_psder.Layout.t -> Machine.t -> Machine.t -> unit
(** [graft_interp ~layout m_old m_new] carries the architectural state
    of [m_old] — a translating machine suspended at a slice boundary, on
    an INTERP word — into [m_new], a fresh {!Uhm_core.Uhm.prepare_interp}
    machine of the same program: stack, frame and data registers and
    regions, and the DIR decode position.  The watchdog downgrade. *)

val arch_fingerprint : layout:Uhm_psder.Layout.t -> Machine.t -> int
(** The fingerprint behind [pr_arch_hash], usable on any machine laid
    out with [layout]. *)
