(** Fault-tolerant serving: the open-arrival loop of {!Serve.run} with
    the {!Uhm_fault.Resilient} fault machinery threaded through every
    in-service ASID slot, plus a service-level robustness policy.

    Three layers ride on top of the plain service:

    - {b The fault machinery} (per attempt, lifted from
      [Uhm_fault.Resilient]): seeded injection at INTERP boundaries,
      per-entry {!Uhm_fault.Guard} checksums verified on DTB hits,
      invalidate-and-retranslate recovery with exponential backoff,
      checkpoint rollback for memory faults, and watchdog downgrade to
      pure interpretation.  Each (job, attempt) pair gets its own
      injector stream, so a re-run attempt does not deterministically
      re-suffer the schedule that voided its predecessor.

    - {b Deadlines and retry}: every accepted completion is verified
      against the template's fault-free solo reference (status, output
      and architectural fingerprint).  A mismatch — or a trap or fuel
      exhaustion that the solo run does not exhibit — voids the attempt:
      the job re-enters service after an exponential backoff
      ([c_job_backoff * 2^(attempt-1)], capped at 64x), up to
      [c_job_retry_limit] retries, after which it retires with the
      distinct {!Serve.Failed} outcome.  The service never reports a
      corrupted answer.  Jobs completing past [c_deadline] raise
      {!Uhm_sched.Trace.Deadline_miss} and count against the exact
      SLO-attainment metric ({!Serve.slo}).

    - {b Brownout}: a controller watches detections over a sliding cycle
      window and head-of-queue delay, and degrades by stage with
      hysteresis on recovery: stage 1 sheds arrivals harder, stage 2
      admits new jobs as pure interpretation (sidestepping the
      translation fault surface), stage 3 quarantines the slot with the
      most recent detections — flushing its entries and voiding its
      current attempt into the retry path.  A quarantine-voided attempt
      charges the same [c_job_retry_limit] budget as a fault-voided
      one: the budget bounds total service work per job, so repeated
      quarantines can retire a job {!Serve.Failed} even though it never
      produced a wrong answer.

    There is one loop, not two: {!Serve.run} and {!run} drive the same
    slicing kernel, and a plain service run is that kernel under
    {!zero}.  So a zero-config run is {e cycle- and trace-identical} to
    {!Serve.run} by construction; [test/test_serve.ml] pins the numbers
    both produce to literal goldens.  The invariant left to enforce, in
    [test/test_chaos.ml], is the recovery one: at every grid point,
    every job retired [Completed] has final state equal to its
    fault-free solo run.  The policy records below are the kernel's own,
    hence the type equations. *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb
module Scheduler := Uhm_sched.Scheduler
module Resilient := Uhm_fault.Resilient

(** The staged-degradation controller's knobs. *)
type brownout = Kernel.brownout = {
  bo_window : int;
      (** sliding window, in cycles, over which detections are counted *)
  bo_hi_detections : int;
      (** escalate a stage while the window holds at least this many
          detections... *)
  bo_hi_wait : int;
      (** ...or while the head of the admission queue has waited at
          least this many cycles *)
  bo_shed_above : int;
      (** stage 1+: shed arrivals finding at least this many queued *)
  bo_hysteresis : int;
      (** de-escalate one stage only after this many consecutive calm
          cycles (re-armed per stage) *)
  bo_quarantine : int;
      (** cycles a stage-3-quarantined slot sits out of service *)
}

val default_brownout : brownout

type config = Kernel.config = {
  c_fault : Resilient.config;
      (** the fault machinery: injector spec, guards, checkpoint cadence,
          per-translation retry/backoff, watchdog *)
  c_job_retry_limit : int;
      (** voided attempts a job may retry before [Failed] *)
  c_job_backoff : int;
      (** base of the job-level exponential backoff, in cycles *)
  c_deadline : int option;  (** per-job sojourn SLO bound, in cycles *)
  c_brownout : brownout option;  (** [None] disables the controller *)
}

val zero : config
(** No faults, no deadline, no brownout: the configuration {!Serve.run}
    runs the kernel under (retry limit 2 and backoff 4096 are present but
    unreachable). *)

type job_report = {
  cj_id : int;
  cj_attempts : int;      (** attempts started; 0 for a shed job *)
  cj_injected : int;
  cj_detected : int;      (** machinery detections plus end-state voids *)
  cj_retries : int;       (** per-translation recovery retries *)
  cj_rollbacks : int;
  cj_downgraded : bool;   (** watchdog-downgraded mid-attempt *)
  cj_interp_admit : bool; (** some attempt was admitted at stage 2 *)
  cj_output : string;     (** last attempt's output *)
  cj_arch_hash : int;     (** last attempt's architectural fingerprint *)
  cj_state_ok : bool;     (** end state equals the solo reference (always
                              true when verification is off or the job
                              never ran) *)
}

type chaos_summary = {
  cs_slo_met : int;          (** clean completions within the bound *)
  cs_slo_completed : int;    (** clean completions, the denominator *)
  cs_attainment : float;     (** [met / completed]; 1.0 with no deadline *)
  cs_goodput : float;        (** verified in-SLO completions per Mcycle *)
  cs_deadline_misses : int;
  cs_failed_jobs : int;
  cs_job_retries : int;      (** job-level retry events *)
  cs_injected : int;
  cs_detected : int;
  cs_recovery_retries : int;
  cs_rollbacks : int;
  cs_downgrades : int;
  cs_interp_admits : int;
  cs_quarantines : int;
  cs_brownout_transitions : int;
  cs_max_stage : int;
}

type result = {
  cv_serve : Serve.result;
      (** the service-level result; under {!zero} it is what
          {!Serve.run} returns, trace included *)
  cv_fconfig : config;
  cv_reports : job_report list;  (** in arrival order, shed included *)
  cv_summary : chaos_summary;
}

type solo_ref = Resilient.solo_result = {
  sr_status : Machine.status;
  sr_output : string;
  sr_arch_hash : int;
  sr_cycles : int;
}

val solo_reference :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  config:Dtb.config ->
  string * Uhm_encoding.Codec.encoded ->
  solo_ref
(** The fault-free solo run a completion is verified against — exposed so
    tests and experiment grids can re-verify end states independently of
    the driver's own bookkeeping.  It is {!Uhm_fault.Resilient.solo} of
    the template's encoding (the name is ignored), cached on the
    encoding, so the service and every caller that holds it share one
    solo simulation per template and settings. *)

val run :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?trace_capacity:int ->
  ?scheduler:Scheduler.policy ->
  ?admission:Serve.admission ->
  ?economy:Serve.economy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  fconfig:config ->
  slots:int ->
  templates:(string * Uhm_encoding.Codec.encoded) list ->
  arrivals:Arrival.arrival list ->
  unit ->
  result
(** Serve [arrivals] as {!Serve.run} does, under [fconfig]'s fault and
    robustness policy.  Raises [Invalid_argument] on everything
    {!Serve.run} rejects, plus a negative retry limit or backoff, a
    deadline below 1, or an injector that can produce [Mem_word] faults
    without a checkpoint cadence. *)
