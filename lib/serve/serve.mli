(** The open-arrival translation service: streaming admission of guest
    programs onto a bounded pool of ASID slots sharing one DTB.

    Where {!Uhm_fault.Resilient.run_encoded} runs a {e closed} set of
    programs to completion, this layer serves an {e open} stream: jobs arrive over
    virtual time (see {!Arrival}), wait in a bounded admission queue,
    are bound to an ASID slot when one frees up, run under the
    {!Uhm_sched.Scheduler} pick order against the shared DTB, and
    retire.  Thousands of jobs thus flow through a handful of
    architectural ASIDs — the slot space is the DTB's namespace
    ([Partitioned] caps it at the set count), so slots are recycled, and
    recycling is exactly why the eviction economy exists: under
    [Tagged]/[Partitioned] sharing a recycled slot's stale translations
    would falsely hit for the new tenant, so the slot is invalidated at
    reassignment; optionally, cold slots are also evicted early
    (idle-time and footprint scoring) to return directory capacity to
    the tenants that are actually running.

    {!run} is the library's one slicing kernel — the loop {!Chaos.run}
    drives — under {!Chaos.zero}: no faults, no deadline, no brownout.
    A zero-config chaos run therefore equals a plain run by
    construction.  The records below are that kernel's own, hence the
    type equations.

    Everything is deterministic in the seed: the driver is serial, one
    virtual clock, and in the closed-system limit (all arrivals at cycle
    0, as many slots as jobs, no economy) it reproduces the closed
    mix's ({!Uhm_fault.Resilient.run_encoded} at
    {!Uhm_fault.Resilient.zero}) dispatch sequence, cycle counts and
    trace rollups bit for bit — the regression anchor that pins the open
    system to the closed mix's goldens.  Each job's slowdown denominator
    is its template's {!Uhm_fault.Resilient.solo} run; the
    service runs no solo simulation of its own. *)

module Dtb := Uhm_core.Dtb
module Machine := Uhm_machine.Machine
module Scheduler := Uhm_sched.Scheduler
module Trace := Uhm_sched.Trace

(** Admission control for the bounded queue. *)
type admission = Kernel.admission = {
  queue_capacity : int;
      (** drop-tail bound: an arrival finding this many jobs queued is
          shed *)
  shed_above : int option;
      (** load shedding: also shed arrivals while the queue holds at
          least this many jobs (a softer, configurable threshold below
          the hard capacity) *)
}

val default_admission : admission
(** Capacity 64, no shedding threshold. *)

(** The cold-ASID eviction economy.  Disabled unless given to {!run}. *)
type economy = Kernel.economy = {
  evict_min_idle : int;
      (** only slots idle for at least this many DTB recency-clock ticks
          are candidates *)
  evict_watermark : float;
      (** trigger scoring only while the directory's resident entries
          are at least this fraction of its tag capacity *)
}

val default_economy : economy
(** Watermark 0.75, minimum idle 256 ticks. *)

type job_status = Kernel.job_status =
  | Completed of Machine.status  (** ran to retirement (however it ended) *)
  | Shed                         (** refused by admission control *)
  | Failed of int
      (** {!Chaos.run} only: every attempt (the int) was voided — by a
          detected fault, or by a stage-3 brownout quarantining the
          slot out from under it — and the per-job retry budget ran
          out; the service reports the failure rather than a corrupted
          answer.  Quarantine-voided attempts consume the same retry
          budget as fault-voided ones, so a job can retire [Failed]
          without ever producing a wrong answer itself.  Plain {!run}
          never produces this. *)

type job = Kernel.job = {
  j_id : int;            (** arrival order, 0-based *)
  j_template : int;      (** index into the template pool *)
  j_name : string;       (** template name *)
  j_arrival : int;       (** arrival cycle *)
  j_admit : int;         (** cycle bound to a slot; -1 if shed *)
  j_finish : int;        (** retirement cycle; -1 if shed *)
  j_asid : int;          (** slot served in; -1 if shed *)
  j_cycles : int;        (** service cycles actually executed *)
  j_queue_delay : int;   (** [j_admit - j_arrival]; 0 if shed *)
  j_sojourn : int;       (** [j_finish - j_arrival]; 0 if shed *)
  j_solo_cycles : int;   (** the template's {!Uhm_fault.Resilient.solo}
                             cycles; 0 if shed *)
  j_slowdown : float;    (** {!Uhm_fault.Resilient.slowdown} of
                             [j_sojourn] over [j_solo_cycles]; 0 if
                             shed *)
  j_status : job_status;
}

type summary = Kernel.summary = {
  s_jobs : int;            (** arrivals offered *)
  s_completed : int;       (** jobs that retired with [Machine.Halted] *)
  s_failed : int;          (** jobs that retired any other way
                               ([Failed] included) *)
  s_shed : int;
  s_total_cycles : int;    (** virtual clock at the end of the run *)
  s_throughput : float;    (** retired jobs per million cycles *)
  s_p50 : int;             (** sojourn percentiles, exact nearest-rank *)
  s_p95 : int;
  s_p99 : int;
  s_qd_p50 : int;          (** queueing-delay percentiles *)
  s_qd_p95 : int;
  s_qd_p99 : int;
  s_mean_slowdown : float; (** over retired jobs *)
  s_max_depth : int;       (** high-water mark of the admission queue *)
  s_evictions : int;       (** ASID evictions (recycle + cold) *)
  s_cold_evictions : int;  (** the economy's share of those *)
  s_switches : int;
  s_flushes : int;
  s_hit_ratio : float;     (** DTB, whole run *)
}

type result = Kernel.result = {
  sv_policy : Dtb.policy;
  sv_scheduler : Scheduler.policy;
  sv_quantum : int;
  sv_config : Dtb.config;
  sv_slots : int;
  sv_jobs : job list;      (** in arrival order, shed jobs included *)
  sv_summary : summary;
  sv_trace : Trace.t;
}

val run :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  ?admission:admission ->
  ?economy:economy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  slots:int ->
  templates:(string * Uhm_encoding.Codec.encoded) list ->
  arrivals:Arrival.arrival list ->
  unit ->
  result
(** Serve [arrivals] (template indices into [templates], non-decreasing
    arrival cycles) through [slots] ASID slots sharing one DTB under
    [policy].  Arrivals are ingested and admissions performed at
    scheduling points (slice boundaries and idle jumps), so the service
    is quantum-granular in virtual time and fully deterministic.  Each
    admitted job gets a fresh machine ({!Uhm_core.Uhm.prepare_dtb_custom});
    machines are recycled at retirement.  [quantum] must be >= 1;
    [slots] >= 1 (and <= [config.sets] under [Partitioned], which the
    underlying {!Dtb.create_shared} enforces).  Raises
    [Invalid_argument] on empty [templates], an out-of-range template
    index, or arrivals out of order. *)

val slo : bound:int -> job list -> int * int * float
(** [slo ~bound jobs] is [(met, completed, attainment)]: of the jobs
    that retired [Completed Machine.Halted], how many had a sojourn of
    at most [bound] cycles, and the exact fraction ([0.] when nothing
    completed).  The deadline metric is pure bookkeeping over the job
    list, so it applies to fault-free {!run} results and chaos results
    alike. *)
