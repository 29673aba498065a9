(** Host-side throughput measurement of the simulator.

    Times real (wall-clock) execution of the representative workloads under
    each execution strategy and reports simulated cycles per second — the
    repo's perf trajectory, persisted as [BENCH_simulator.json] by
    [bench/main.exe perf] and [uhmc perf]. *)

type sample = {
  workload : string;
  strategy : string;
  backend : string;            (** ["decode"] or ["threaded"] *)
  encoding : string;
  runs : int;
  wall_seconds : float;        (** total over all timed runs *)
  sim_cycles : int;            (** per run (deterministic) *)
  host_instrs : int;           (** per run *)
  short_instrs : int;          (** per run *)
  dir_steps : int;             (** per run *)
  sim_cycles_per_sec : float;
  host_instrs_per_sec : float;
  wall_us_per_run : float;
}

val strategies : (string * Uhm.strategy) list
(** The measured strategies: interp, cached, dtb, der. *)

val default_workloads : string list
(** ["fact_iter"; "fib_rec"; "flat_straightline"]. *)

val backend_name : Uhm_machine.Machine.backend -> string
(** ["decode"] / ["threaded"]. *)

val measure :
  ?min_runs:int -> ?min_seconds:float ->
  ?backend:Uhm_machine.Machine.backend -> workload:string ->
  strategy_name:string -> strategy:Uhm.strategy -> unit -> sample
(** [measure ~workload ~strategy_name ~strategy ()] times repeated full runs
    (compile and encode are outside the timed region; one warm-up run is
    discarded) until both [min_runs] (default 5) and [min_seconds]
    (default 0.2) are reached.  [backend] (default [`Decode]) selects the
    host execution backend; simulated results are identical, only the host
    wall-clock changes. *)

val run_suite :
  ?workloads:string list -> ?min_runs:int -> ?min_seconds:float ->
  ?backends:Uhm_machine.Machine.backend list ->
  ?domains:int -> unit -> sample list
(** Every workload crossed with every strategy and every backend
    ([backends] defaults to [[`Decode]]), evaluated through {!Sweep.map}.
    [domains] defaults to [1]: concurrent timed runs steal host cycles
    from each other, so parallel sampling is only for smoke-testing the
    plumbing, not for recorded numbers. *)

(** One (workload, strategy) measured under both backends: the threaded
    backend's host wall-clock speedup over decode. *)
type backend_pair = {
  bp_workload : string;
  bp_strategy : string;
  bp_decode_us : float;        (** [wall_us_per_run], decode backend *)
  bp_threaded_us : float;      (** [wall_us_per_run], threaded backend *)
  bp_speedup : float;          (** decode / threaded wall time per run *)
}

val backend_pairs : sample list -> backend_pair list
(** Pair up decode/threaded samples of the same (workload, strategy); the
    source of the ["backend"] section. *)

val print_report : sample list -> unit
(** Print the samples table, one speedup line per {!backend_pairs} pair
    and their geometric mean — the report of [uhmc perf] and
    [bench perf]. *)

(** Wall-clock of the whole-suite summary sweep ({!Experiment.summary_rows})
    at one domain and at [sweep_domains] — the recorded evidence that the
    parallel engine pays for itself and stays byte-identical. *)
type sweep_bench = {
  sweep_points : int;          (** grid points (rows x strategies) *)
  sweep_domains : int;         (** domain count of the parallel run *)
  sweep_wall_1 : float;        (** seconds, best of repeats, 1 domain *)
  sweep_wall_n : float;        (** seconds, best of repeats, N domains *)
  sweep_speedup : float;       (** [sweep_wall_1 /. sweep_wall_n] *)
  sweep_identical : bool;      (** structural equality of the two row lists *)
}

val measure_sweep : ?domains:int -> ?repeats:int -> unit -> sweep_bench
(** Times {!Experiment.summary_rows} at 1 domain and at [domains]
    (default {!Sweep.default_domains}), keeping the best wall-clock of
    [repeats] (default 2) timings each, and compares the results. *)

(** One cell of the open-arrival saturation study ([bench load]): the
    latency percentiles and throughput of one (policy, quantum, offered
    rate) serve run.  The source of the schema-v4 ["load"] section. *)
type load_point = {
  lp_policy : string;          (** ["flush"], ["tagged"] or ["partitioned"] *)
  lp_rate : float;             (** offered load, jobs per million cycles *)
  lp_quantum : int;
  lp_jobs : int;               (** arrivals offered *)
  lp_completed : int;
  lp_shed : int;
  lp_throughput : float;       (** completions per million simulated cycles *)
  lp_p50 : int;                (** exact nearest-rank sojourn percentiles *)
  lp_p95 : int;
  lp_p99 : int;
  lp_mean_slowdown : float;
}

(** The ["load"] section: one seeded grid, points in sweep order. *)
type load_bench = {
  load_seed : int;
  load_slots : int;
  load_points : load_point list;
}

(** One cell of the fault-tolerant serving study ([bench resilience]):
    what one (policy, fault rate, offered rate) chaos run delivered.  The
    source of the schema-v5 ["resilience"] section. *)
type resilience_point = {
  rp_policy : string;          (** ["flush"], ["tagged"] or ["partitioned"] *)
  rp_fault_rate : float;       (** total per-step injection probability *)
  rp_rate : float;             (** offered load, jobs per million cycles *)
  rp_quantum : int;
  rp_jobs : int;               (** arrivals offered *)
  rp_completed : int;          (** verified clean completions *)
  rp_failed : int;             (** jobs that exhausted their retries *)
  rp_shed : int;
  rp_slo_attainment : float;   (** in-SLO completions / completions, exact *)
  rp_goodput : float;          (** in-SLO completions per million cycles *)
  rp_injected : int;
  rp_detected : int;
  rp_job_retries : int;
  rp_p99 : int;                (** exact nearest-rank sojourn p99, cycles *)
  rp_p99_degradation : float;
      (** [rp_p99] over the p99 of the same (policy, offered rate) cell at
          fault rate 0 — the tail-latency cost of the faults *)
}

(** The ["resilience"] section: one seeded grid under one SLO bound,
    points in sweep order. *)
type resilience_bench = {
  res_seed : int;
  res_slots : int;
  res_slo : int;               (** the deadline bound, cycles *)
  res_points : resilience_point list;
}

(** {2 Minimal JSON}

    Just enough of a reader for the documents this repo writes (the BENCH
    document, the multiprogramming trace export); kept in-repo so the
    build stays dependency-free beyond the compiler distribution. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

val parse_json : string -> json
(** Raises {!Json_error} on malformed input. *)

exception Json_error of string

(** {2 The BENCH document} *)

val update_json :
  ?samples:sample list ->
  ?sweep:sweep_bench ->
  ?load:load_bench ->
  ?resilience:resilience_bench ->
  path:string ->
  unit ->
  unit
(** Read-modify-write of the BENCH_simulator.json document at [path]
    (schema ["uhm-bench-simulator/5"]): each section passed replaces the
    top-level key of the same name, and every other key of the existing
    document — including sections this binary does not know — is kept
    as parsed, its numbers round-tripping exactly.  [samples] also
    replaces the [backend] section derived from them (per-pair host
    speedups and their geometric mean), or removes it when no sample is
    paired across both backends.  When any section is replaced, the
    [schema], [generated_by] and [unix_time] header is refreshed too.  A
    missing file starts an empty document; new keys are appended in the
    order header, [sweep], [load], [resilience], [backend], [samples].
    The file is replaced atomically.  Raises {!Json_error} when the
    existing file is not a JSON object. *)

(** {2 Baseline comparison — the CI perf gate} *)

val read_baseline : path:string -> ((string * string * string) * float) list
(** [(workload, strategy, backend) -> sim_cycles_per_sec] pairs from a
    previously written BENCH_simulator.json (any schema version; v2
    samples, which predate the backend field, read as ["decode"]).
    Raises [Json_error] on malformed input. *)

(** One sample whose host-relative throughput dropped past the threshold. *)
type regression = {
  reg_workload : string;
  reg_strategy : string;
  reg_backend : string;
  reg_baseline_rel : float;  (** baseline rate / baseline geometric mean *)
  reg_current_rel : float;   (** current rate / current geometric mean *)
  reg_drop_pct : float;      (** relative drop, percent *)
}

val check_against_baseline :
  max_regression_pct:float ->
  baseline:((string * string * string) * float) list ->
  sample list ->
  (regression list, string) result
(** Compares host-speed-independent relative rates: each file's samples are
    normalised by that file's own geometric mean over the shared
    (workload, strategy, backend) keys, so a uniformly faster or slower
    host cancels out.  [Ok []] means the gate passes; [Ok regressions]
    lists samples whose relative rate dropped more than
    [max_regression_pct] percent; [Error] means the files share no
    samples. *)
