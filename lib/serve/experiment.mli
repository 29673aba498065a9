(** The serving grid: fault rate x offered load x policy x quantum,
    each cell one complete open-arrival {!Chaos.run}, evaluated on the
    {!Uhm_core.Sweep} pool.

    Cells are independent full simulations (each builds its own DTB,
    arrival stream and machines), so the grid parallelises like any
    other sweep and the result list is byte-identical at any domain
    count; campaign supervision gives it journaled kill/resume for free.
    The output is the degradation surface — SLO attainment, goodput and
    tail latency as functions of the injected fault rate — and, at
    fault rate 0 alone, the latency-vs-load curve of the plain service:
    at rate 0 {!resilience_fconfig} is {!Chaos.zero}, so each cell's
    [cv_serve] is exactly what {!Serve.run} returns, trace included. *)

module Dtb := Uhm_core.Dtb
module Sweep := Uhm_core.Sweep
module Scheduler := Uhm_sched.Scheduler

(** The arrival-process shape swept over the rate axis. *)
type shape =
  | Open_poisson
      (** memoryless arrivals at each axis rate *)
  | Open_bursty of { burst : float; idle : float }
      (** bursts of mean length [burst] at each axis rate, separated by
          idle gaps of mean [idle] cycles *)

val shape_name : shape -> string
(** Stable description for fingerprints: ["poisson"],
    ["bursty(burst=8,idle=5000)"]. *)

val default_rates : float list
(** [4.0; 12.0; 40.0] jobs per million cycles: below, around, and past
    the knee for a pool of the suite's light templates (service times
    around 50k–120k cycles, so capacity lands near 10 jobs/Mcycle). *)

val cell_format : string
(** A token naming the [resilience_cell] layout.  Journals hold cells as
    untyped [Marshal] payloads, so a campaign fingerprint includes it:
    a journal written under another layout is refused on resume instead
    of being misread. *)

type resilience_cell = {
  rc_policy : Dtb.policy;
  rc_quantum : int;
  rc_fault_rate : float;
      (** total per-INTERP-step injection probability, split evenly over
          all four fault classes; [0.0] is the fault-free control *)
  rc_rate : float;  (** offered load, jobs per million cycles *)
  rc_config : Dtb.config;
  rc_fconfig : Chaos.config;  (** the policy the cell actually ran under *)
  rc_result : Chaos.result;
}

val default_fault_rates : float list
(** [[0.0; 1e-5; 1e-4]]: the control, a rate where most jobs run clean,
    and one where most attempts see at least one injection. *)

val resilience_fconfig :
  ?retry_limit:int ->
  ?backoff:int ->
  ?checkpoint_every:int ->
  ?deadline:int ->
  ?brownout:Chaos.brownout ->
  fault_seed:int ->
  float ->
  Chaos.config
(** The canonical cell policy for a total fault rate: guards on,
    checkpoints every 1024 steps (iff memory faults are possible), the
    rate split evenly over {!Uhm_fault.Injector.all_classes}, job-level
    retry (default limit 2, backoff 4096) — and no brownout unless
    given.  Rate [0.0] yields {!Uhm_fault.Resilient.zero} machinery, so
    the control column pays no guard or checkpoint overhead; with the
    default retry limit and backoff and no deadline or brownout it is
    {!Chaos.zero} itself, the plain service.  Raises
    [Invalid_argument] on a negative or non-finite rate. *)

val resilience_axes :
  ?quanta:int list ->
  rates:float list ->
  fault_rates:float list ->
  policies:Dtb.policy list ->
  unit ->
  (Dtb.policy * int * float * float) list
(** Cell axes in submission order: policies outermost, then quanta
    (default [[64]]), then fault rates, then offered-load rates — so
    each (policy, fault-rate) degradation curve is a contiguous run. *)

val resilience_grid_slots :
  ?domains:int ->
  ?scheduler:Scheduler.policy ->
  ?quanta:int list ->
  ?trace_capacity:int ->
  ?backend:Uhm_machine.Machine.backend ->
  ?shape:shape ->
  ?admission:Serve.admission ->
  ?economy:Serve.economy ->
  ?supervision:Sweep.supervision ->
  ?cached:(int -> resilience_cell option) ->
  ?cell_hook:(index:int -> attempts:int -> resilience_cell Sweep.slot -> unit) ->
  ?cell_fuel:int ->
  ?weights:float list ->
  ?retry_limit:int ->
  ?backoff:int ->
  ?checkpoint_every:int ->
  ?deadline:int ->
  ?brownout:Chaos.brownout ->
  ?fault_seed:int ->
  ?poison:int list ->
  seed:int ->
  jobs:int ->
  slots:int ->
  kind:Uhm_encoding.Kind.t ->
  policies:Dtb.policy list ->
  fault_rates:float list ->
  rates:float list ->
  config:Dtb.config ->
  (string * Uhm_dir.Program.t) list ->
  resilience_cell Sweep.slot list
(** One {!Chaos.run} per {!resilience_axes} cell over the given template
    pool (encoded once, in parallel, like the mix grid's pre-pass),
    under campaign supervision: a failing cell is retried and then
    quarantined instead of aborting the grid, and [cached]/[cell_hook]
    plug in a {!Uhm_campaign} journal.  Every cell's policy is built by
    {!resilience_fconfig} from the cell's fault rate (same [fault_seed],
    default 4242, for every cell: columns differ only in rate).

    A cell fails in exactly two cases: an accepted ([Completed]) job's
    end state differs from its fault-free solo run — the
    no-wrong-answers invariant — or an accepted job did not halt (a
    trap is poison; fuel exhaustion is the wedged-job budget).  [Shed]
    and [Failed] jobs are service outcomes (admission control,
    exhausted retries), not a cell failure.

    [shape] defaults to [Open_poisson]; [trace_capacity] to a small ring
    (4096) since grids keep every cell's trace alive; [cell_fuel] bounds
    each job's machine (and its solo reference) so a wedged or corrupted
    attempt traps out rather than holding its slot indefinitely;
    [weights] skews the template pick per {!Arrival.generate}
    (heavy-tailed pools); [poison] is the quarantine-path testing aid,
    as in the mix grid: the listed cell indices raise on every attempt.
    Completed slots are byte-identical at any domain count. *)
