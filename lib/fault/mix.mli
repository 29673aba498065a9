(** The multiprogramming mix: N DIR programs time-sliced over one
    shared DTB, with no faults.

    {!Resilient.run_encoded} at {!Resilient.zero} — the one closed-mix
    driver — plus what only the fault-free mix reports: each program's
    reference DIR step count, its hit ratio, and its slowdown against a
    solo run.

    Because slicing stops only at INTERP boundaries and the shared DTB
    under every policy serves a program the translations it installed
    itself, each program's output is identical to its single-program run;
    only the cycle counts and DTB statistics change with contention.
    With [quantum >= ] every program's [dir_steps] nothing is ever
    preempted, and per-program cycles equal the single-program golden
    numbers exactly (under [Flush_on_switch] trivially; under [Tagged] /
    [Partitioned] because the set mapping a program sees is unchanged and
    foreign entries only occupy ways it has not yet claimed). *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb
module Scheduler := Uhm_sched.Scheduler
module Trace := Uhm_sched.Trace

type program_result = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;          (** cycles this program executed *)
  pr_dir_steps : int;       (** reference DIR step count *)
  pr_slices : int;
  pr_dtb_hits : int;        (** DTB activity during this program's slices *)
  pr_dtb_misses : int;
  pr_dtb_evictions : int;
  pr_hit_ratio : float;
  pr_solo_cycles : int;
      (** cycles of the same program run alone on the same geometry
          (memoised single-program run; see {!solo_cycles}) *)
  pr_slowdown : float;
      (** fairness: [pr_cycles / pr_solo_cycles], the price this program
          paid for sharing the machine.  The solo denominator always uses
          the {e full} geometry, so the metric prices everything the mix
          costs: exactly 1.0 at {!solo_quantum} under [Flush_on_switch]
          (each program starts cold with the whole buffer — precisely the
          solo run), and under the other policies whenever the geometry
          still leaves each program its working set (the solo-equality
          golden at the paper geometry).  Under [Partitioned] at a tight
          geometry it exceeds 1.0 {e even without preemption}: the
          shrunken partition itself is a cost of sharing, and the metric
          deliberately charges for it. *)
}

type result = {
  mr_policy : Dtb.policy;
  mr_scheduler : Scheduler.policy;
  mr_quantum : int;
  mr_config : Dtb.config;
  mr_programs : program_result list;  (** in ASID order *)
  mr_makespan : int;                  (** global virtual time at the
                                          last completion *)
  mr_switches : int;
  mr_flushes : int;
  mr_hit_ratio : float;               (** over all programs' lookups *)
  mr_evictions : int;
  mr_trace : Trace.t;
}

val run_encoded :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Uhm_machine.Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  (string * Uhm_encoding.Codec.encoded) list ->
  result
(** Run the named pre-encoded programs to completion under time-slicing.
    [scheduler] defaults to {!Scheduler.Round_robin}; [quantum] is in DIR
    instructions (use {!solo_quantum} for the never-preempt limit);
    [trace_capacity] bounds the event ring (default 65536).  [backend]
    selects each machine's execution backend (default [`Decode]); results,
    traces and statistics are identical under both. *)

val run :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Uhm_machine.Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  kind:Uhm_encoding.Kind.t ->
  (string * Uhm_dir.Program.t) list ->
  result
(** {!run_encoded} after encoding each program with [kind]. *)

val solo_quantum : int
(** A quantum larger than any program ([max_int]): no preemption ever
    fires, so round-robin degenerates to sequential execution and every
    program reproduces its single-program cycle count exactly. *)

val solo_cycles :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  config:Dtb.config ->
  Uhm_encoding.Codec.encoded ->
  int
(** Cycle count of the program run alone under [Dtb_strategy config] —
    the denominator of {!program_result.pr_slowdown}.  Memoised (bounded,
    thread-safe, keyed physically on the program and structurally on
    config/timing/fuel), so a grid pays for each distinct solo run
    once. *)
