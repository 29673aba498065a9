(** The fault-campaign grid: program mix x fault class x rate x DTB
    sharing policy x quantum x DTB geometry, evaluated on the
    {!Uhm_core.Sweep} pool.

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

module Sweep := Uhm_core.Sweep

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
