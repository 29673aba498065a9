(** The two closed-mix grids, evaluated on the {!Uhm_core.Sweep} pool:
    the multiprogramming grid (programs x sharing policy x scheduler x
    quantum x DTB geometry) and the fault-campaign grid (program mix x
    fault class x rate x sharing policy x quantum x DTB geometry), one
    {!Resilient.run_encoded} per cell — at {!Resilient.zero} in the
    first.  Both encode their programs once with
    {!Uhm_core.Experiment.encode_programs}.

    {2 The multiprogramming grid}

    Every cell runs the same program mix to completion under time-slicing
    and reports per-program cycles and DTB statistics
    ({!Resilient.result}) plus each program's solo cycles
    ({!Resilient.solo}), the denominator of {!Resilient.slowdown}.
    Cells are independent (each builds its own shared DTB and machines),
    so the grid parallelises like any other sweep and the result list is
    byte-identical at any domain count.  The sweep is given each cell's
    estimated simulated work as its cost hint, so expensive cells (big
    mixes, small quanta under [Flush_on_switch]) start first.

    {2 The fault-campaign grid}

    Every cell runs the same mix under {!Resilient.run_encoded} with
    guards enabled (and checkpoints enabled for [Mem_word] cells),
    compares the final per-program state against a fault-free baseline
    for the same (policy, quantum, geometry), and reports the recovery
    verdict, the cycle overhead relative to that baseline, and the
    fault-lifecycle counts.  Cells are independent and deterministic:
    each derives its injector seed from the campaign seed and its grid
    position, so the result list is byte-identical at any domain
    count and any cell can be re-run alone. *)

module Dtb := Uhm_core.Dtb
module Scheduler := Uhm_sched.Scheduler
module Sweep := Uhm_core.Sweep

type mix_cell = {
  mc_policy : Dtb.policy;
  mc_scheduler : Scheduler.policy;
  mc_quantum : int;
  mc_config : Dtb.config;
  mc_result : Resilient.result;  (** run at {!Resilient.zero} *)
  mc_solo_cycles : int list;
      (** each program's {!Resilient.solo} cycles on [mc_config] (with
          the grid's [cell_fuel]), in ASID order *)
}

val cell_format : string
(** A token naming the [mix_cell] layout.  Journals hold cells as
    untyped [Marshal] payloads, so a campaign fingerprint includes it:
    a journal written under another layout is refused on resume instead
    of being misread. *)

val default_quanta : int list
(** [16; 256; Resilient.solo_quantum] — heavy contention, light contention, and the
    quantum-to-infinity limit that must reproduce single-program golden
    numbers. *)

val mix_axes :
  ?schedulers:Scheduler.policy list ->
  ?quanta:int list ->
  policies:Dtb.policy list ->
  configs:Dtb.config list ->
  unit ->
  (Dtb.policy * Scheduler.policy * int * Dtb.config) list
(** The grid's cell axes in submission order — what cell index [i] of
    {!mix_grid_slots} ran.  Lets a caller describe a
    quarantined cell (whose [mix_cell] never materialised) and build a
    journal fingerprint. *)

val mix_grid_slots :
  ?domains:int ->
  ?schedulers:Scheduler.policy list ->
  ?quanta:int list ->
  ?trace_capacity:int ->
  ?backend:Uhm_machine.Machine.backend ->
  ?supervision:Sweep.supervision ->
  ?cached:(int -> mix_cell option) ->
  ?cell_hook:(index:int -> attempts:int -> mix_cell Sweep.slot -> unit) ->
  ?cell_fuel:int ->
  ?poison:int list ->
  kind:Uhm_encoding.Kind.t ->
  policies:Dtb.policy list ->
  configs:Dtb.config list ->
  (string * Uhm_dir.Program.t) list ->
  mix_cell Sweep.slot list
(** Cells in submission order: policies outermost, then schedulers, then
    quanta, then configs.  [schedulers] defaults to round-robin only;
    [quanta] to {!default_quanta}; [trace_capacity] to a small ring
    (4096) since grids keep every cell's trace alive.  [backend] selects
    the execution backend for every machine in every cell (default
    [`Decode]); cell contents are identical under both.

    The grid runs under campaign supervision: a failing cell is retried
    and then quarantined instead of aborting the grid, and [cached]/
    [cell_hook] plug in a {!Uhm_campaign} journal.  A cell whose
    programs did not all halt {e fails} (and is quarantined) rather than
    reporting a poisoned row; [cell_fuel] bounds each program's machine
    with a fuel budget, turning a wedged cell into a deterministic
    failure.  [poison] (a testing aid for the quarantine
    path, used by the CI smoke) makes the listed cell indices raise on
    every attempt.  The encode pre-pass
    ({!Uhm_core.Experiment.encode_programs}) stays unsupervised. *)


type point = {
  fp_class : Injector.fault_class;
  fp_rate : float;
  fp_policy : Dtb.policy;
  fp_quantum : int;
  fp_config : Dtb.config;
  fp_seed : int;                (** the cell's derived injector seed *)
  fp_result : Resilient.result;
  fp_baseline_cycles : int;
  fp_recovered_ok : bool;
      (** every program's final status, output and architectural
          fingerprint equal the fault-free baseline's *)
  fp_overhead : float;          (** total cycles / baseline cycles *)
  fp_injected : int;
  fp_detected : int;
  fp_retries : int;
  fp_rollbacks : int;
  fp_downgrades : int;
}

val default_rates : float list
(** [0; 1e-4; 1e-3; 1e-2] faults per DIR instruction step.  Rate 0 with
    guards on measures the pure guard overhead. *)

val cell_seed : seed:int -> index:int -> int
(** The injector seed of the cell at [index] in submission order. *)

val fault_axes :
  quanta:int list ->
  classes:Injector.fault_class list ->
  rates:float list ->
  policies:Dtb.policy list ->
  configs:Dtb.config list ->
  unit ->
  (Injector.fault_class * float * Dtb.policy * int * Dtb.config) list
(** The grid's cell axes in submission order — what cell index [i] of
    {!fault_grid_slots} ran.  Lets a caller describe a
    quarantined cell and build a journal fingerprint. *)

val fault_grid_slots :
  ?domains:int ->
  ?quanta:int list ->
  ?seed:int ->
  ?trace_capacity:int ->
  ?retry_limit:int ->
  ?backoff_cycles:int ->
  ?checkpoint_every:int ->
  ?watchdog_window:int ->
  ?watchdog_threshold:int ->
  ?supervision:Sweep.supervision ->
  ?cached:(int -> point option) ->
  ?cell_hook:(index:int -> attempts:int -> point Sweep.slot -> unit) ->
  ?cell_fuel:int ->
  kind:Uhm_encoding.Kind.t ->
  classes:Injector.fault_class list ->
  rates:float list ->
  policies:Dtb.policy list ->
  configs:Dtb.config list ->
  (string * Uhm_dir.Program.t) list ->
  point Sweep.slot list
(** Cells in submission order: classes outermost, then rates, policies,
    quanta, configs.  Encoding and the fault-free baselines are computed
    once (on the pool) and shared by every cell.  [quanta] defaults to
    [[64]]; expensive cells (high rates, [Mem_word] checkpointing,
    [Flush_on_switch] with small quanta) carry larger cost hints so the
    pool starts them first.

    The grid runs under campaign supervision: a failing cell is retried
    and then quarantined instead of aborting the grid, and [cached]/
    [cell_hook] plug in a {!Uhm_campaign} journal.  [cell_fuel] bounds
    each program's machine with a fuel budget; a cell whose mix exhausts
    fuel {e fails} (quarantine path) — whereas a recovery failure
    remains a reported verdict ([fp_recovered_ok = false]).  The encode
    and baseline pre-passes stay unsupervised. *)
