(* Fault-tolerant serving; see chaos.mli.

   The serving loop, the per-attempt fault machinery and the robustness
   policy all live in Kernel.run, the one slicing kernel that Serve.run
   also runs (at [zero]).  This module re-exports the policy records and
   folds the kernel's per-job state into job reports and the chaos
   summary. *)

module Machine = Uhm_machine.Machine
module Trace = Uhm_sched.Trace
module Resilient = Uhm_fault.Resilient

type brownout = Kernel.brownout = {
  bo_window : int;
  bo_hi_detections : int;
  bo_hi_wait : int;
  bo_shed_above : int;
  bo_hysteresis : int;
  bo_quarantine : int;
}

let default_brownout = Kernel.default_brownout

type config = Kernel.config = {
  c_fault : Resilient.config;
  c_job_retry_limit : int;
  c_job_backoff : int;
  c_deadline : int option;
  c_brownout : brownout option;
}

let zero = Kernel.zero

type job_report = {
  cj_id : int;
  cj_attempts : int;
  cj_injected : int;
  cj_detected : int;
  cj_retries : int;
  cj_rollbacks : int;
  cj_downgraded : bool;
  cj_interp_admit : bool;
  cj_output : string;
  cj_arch_hash : int;
  cj_state_ok : bool;
}

type chaos_summary = {
  cs_slo_met : int;
  cs_slo_completed : int;
  cs_attainment : float;
  cs_goodput : float;
  cs_deadline_misses : int;
  cs_failed_jobs : int;
  cs_job_retries : int;
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
  cv_fconfig : config;
  cv_reports : job_report list;
  cv_summary : chaos_summary;
}

type solo_ref = Resilient.solo_result = {
  sr_status : Machine.status;
  sr_output : string;
  sr_arch_hash : int;
  sr_cycles : int;
}

let solo_reference ?timing ?fuel ?layout ?backend ~config (_, encoded) =
  Resilient.solo ?timing ?fuel ?layout ?backend ~config encoded

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ?admission
    ?economy ~policy ~quantum ~config ~fconfig ~slots ~templates ~arrivals () =
  let k =
    Kernel.run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler
      ?admission ?economy ~policy ~quantum ~config ~fconfig ~slots ~templates
      ~arrivals ()
  in
  let serve = k.Kernel.k_result and jstates = k.Kernel.k_jobs in
  let job_list = serve.Serve.sv_jobs and trace = serve.Serve.sv_trace in
  let clock = serve.Serve.sv_summary.Serve.s_total_cycles in
  let reports =
    Array.to_list jstates
    |> List.map (fun (js : Kernel.jstate) ->
           {
             cj_id = js.Kernel.js_id;
             cj_attempts = js.Kernel.js_attempts;
             cj_injected = js.Kernel.js_injected;
             cj_detected = js.Kernel.js_detected;
             cj_retries = js.Kernel.js_retries;
             cj_rollbacks = js.Kernel.js_rollbacks;
             cj_downgraded = js.Kernel.js_downgraded;
             cj_interp_admit = js.Kernel.js_interp_admit;
             cj_output = js.Kernel.js_output;
             cj_arch_hash = js.Kernel.js_arch_hash;
             cj_state_ok = js.Kernel.js_state_ok;
           })
  in
  let slo_bound = Option.value ~default:max_int fconfig.c_deadline in
  let met, n_completed, attainment = Serve.slo ~bound:slo_bound job_list in
  let attainment =
    if fconfig.c_deadline = None then 1. else attainment
  in
  let goodput =
    if clock = 0 then 0. else float_of_int met /. float_of_int clock *. 1e6
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let failed_jobs =
    List.length
      (List.filter
         (fun j ->
           match j.Serve.j_status with Serve.Failed _ -> true | _ -> false)
         job_list)
  in
  let csummary =
    {
      cs_slo_met = met;
      cs_slo_completed = n_completed;
      cs_attainment = attainment;
      cs_goodput = goodput;
      cs_deadline_misses = k.Kernel.k_deadline_misses;
      cs_failed_jobs = failed_jobs;
      cs_job_retries = k.Kernel.k_job_retries;
      cs_injected = sum (fun r -> r.cj_injected);
      cs_detected = sum (fun r -> r.cj_detected);
      cs_recovery_retries = sum (fun r -> r.cj_retries);
      cs_rollbacks = sum (fun r -> r.cj_rollbacks);
      cs_downgrades = sum (fun r -> if r.cj_downgraded then 1 else 0);
      cs_interp_admits = k.Kernel.k_interp_admits;
      cs_quarantines = k.Kernel.k_quarantines;
      cs_brownout_transitions = Trace.brownout_transitions trace;
      cs_max_stage = Trace.brownout_peak trace;
    }
  in
  {
    cv_serve = serve;
    cv_fconfig = fconfig;
    cv_reports = reports;
    cv_summary = csummary;
  }
