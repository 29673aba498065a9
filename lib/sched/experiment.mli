(** The multiprogramming experiment grid: programs x policy x quantum x
    DTB geometry, evaluated on the {!Uhm_core.Sweep} pool.

    Every cell runs the same program mix to completion under time-slicing
    and reports per-program cycles and DTB statistics ({!Mix.result}).
    Cells are independent (each builds its own shared DTB and machines),
    so the grid parallelises like any other sweep and the result list is
    byte-identical at any domain count.  The sweep is given each cell's
    estimated simulated work as its cost hint, so expensive cells (big
    mixes, small quanta under [Flush_on_switch]) start first. *)

module Dtb := Uhm_core.Dtb

type mix_cell = {
  mc_policy : Dtb.policy;
  mc_scheduler : Scheduler.policy;
  mc_quantum : int;
  mc_config : Dtb.config;
  mc_result : Mix.result;
}

val default_quanta : int list
(** [16; 256; solo_quantum] — heavy contention, light contention, and the
    quantum-to-infinity limit that must reproduce single-program golden
    numbers. *)

module Sweep := Uhm_core.Sweep

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
    every attempt.  The encode pre-pass stays unsupervised. *)
