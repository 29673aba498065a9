(* The offered-load and fault-rate experiment grid; see experiment.mli. *)

module Sweep = Uhm_core.Sweep
module Dtb = Uhm_core.Dtb
module Machine = Uhm_machine.Machine
module Injector = Uhm_fault.Injector
module Resilient = Uhm_fault.Resilient

type shape = Open_poisson | Open_bursty of { burst : float; idle : float }

let shape_name = function
  | Open_poisson -> "poisson"
  | Open_bursty { burst; idle } ->
      Printf.sprintf "bursty(burst=%g,idle=%g)" burst idle

let process_of shape rate =
  match shape with
  | Open_poisson -> Arrival.Poisson { rate }
  | Open_bursty { burst; idle } -> Arrival.Bursty { rate; burst; idle }

let default_rates = [ 4.0; 12.0; 40.0 ]
let cell_format = "resilience_cell/1"

(* The template pool, encoded once in parallel, and the mean reference
   DIR steps per template that the cost hints use. *)
let encode_pool ?domains ~kind programs =
  let encodeds =
    Uhm_core.Experiment.encode_programs ?domains ~kind programs
  in
  ( List.fold_left (fun acc (_, _, s) -> acc + s) 0 encodeds
    / List.length encodeds,
    List.map (fun (n, e, _) -> (n, e)) encodeds )

type resilience_cell = {
  rc_policy : Dtb.policy;
  rc_quantum : int;
  rc_fault_rate : float;
  rc_rate : float;
  rc_config : Dtb.config;
  rc_fconfig : Chaos.config;
  rc_result : Chaos.result;
}

let default_fault_rates = [ 0.0; 1e-5; 1e-4 ]

let resilience_fconfig ?(retry_limit = 2) ?(backoff = 4096)
    ?(checkpoint_every = 1024) ?deadline ?brownout ~fault_seed rate =
  if rate < 0.0 || not (Float.is_finite rate) then
    invalid_arg "Experiment.resilience_fconfig: fault rate";
  let c_fault =
    if rate = 0.0 then Resilient.zero
    else
      let per = rate /. float_of_int (List.length Injector.all_classes) in
      Resilient.protected ~checkpoint_every
        {
          Injector.seed = fault_seed;
          rates = List.map (fun c -> (c, per)) Injector.all_classes;
          explicit = [];
        }
  in
  {
    Chaos.c_fault;
    c_job_retry_limit = retry_limit;
    c_job_backoff = backoff;
    c_deadline = deadline;
    c_brownout = brownout;
  }

let resilience_axes ?(quanta = [ 64 ]) ~rates ~fault_rates ~policies () =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun quantum ->
          List.concat_map
            (fun fr -> List.map (fun rate -> (policy, quantum, fr, rate)) rates)
            fault_rates)
        quanta)
    policies

(* a cell's host time scales with the simulated work: every job runs its
   template to completion, small quanta under Flush_on_switch retranslate
   working sets every slice, and faults inflate the work (every detection
   re-runs a translation, every void the whole job).  The fault
   multiplier is a scheduling hint, not an accounting identity. *)
let resilience_cost ~mean_steps ~jobs (policy, quantum, fault_rate, _) =
  let total = mean_steps * jobs in
  let slices = max 1 (total / max 1 quantum) in
  let base =
    total + match policy with Dtb.Flush_on_switch -> slices * 64 | _ -> 0
  in
  base + int_of_float (float_of_int base *. 200.0 *. fault_rate)

let resilience_cell_of ~trace_capacity ?scheduler ?backend
    ?shape:(sh = Open_poisson) ?admission ?economy ?cell_fuel ?weights
    ?retry_limit ?backoff ?checkpoint_every ?deadline ?brownout ~fault_seed
    ~seed ~jobs ~slots ~config templates (policy, quantum, fault_rate, rate) =
  let arrivals =
    Arrival.generate ?weights ~seed ~templates:(List.length templates) ~jobs
      (process_of sh rate)
  in
  let fconfig =
    resilience_fconfig ?retry_limit ?backoff ?checkpoint_every ?deadline
      ?brownout ~fault_seed fault_rate
  in
  {
    rc_policy = policy;
    rc_quantum = quantum;
    rc_fault_rate = fault_rate;
    rc_rate = rate;
    rc_config = config;
    rc_fconfig = fconfig;
    rc_result =
      Chaos.run ?fuel:cell_fuel ?backend ~trace_capacity ?scheduler ?admission
        ?economy ~policy ~quantum ~config ~fconfig ~slots ~templates ~arrivals
        ();
  }

let resilience_grid_slots ?domains ?scheduler ?quanta ?(trace_capacity = 4096)
    ?backend ?shape ?admission ?economy ?supervision ?cached ?cell_hook
    ?cell_fuel ?weights ?retry_limit ?backoff ?checkpoint_every ?deadline
    ?brownout ?(fault_seed = 4242) ?(poison = []) ~seed ~jobs ~slots ~kind
    ~policies ~fault_rates ~rates ~config programs =
  if programs = [] then
    invalid_arg "Experiment.resilience_grid_slots: no programs";
  let mean_steps, templates = encode_pool ?domains ~kind programs in
  let cells =
    List.mapi (fun i c -> (i, c))
      (resilience_axes ?quanta ~rates ~fault_rates ~policies ())
  in
  Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains
    ~cost:(fun (_, c) -> resilience_cost ~mean_steps ~jobs c)
    (fun (i, axes) ->
      if List.mem i poison then
        failwith (Printf.sprintf "cell %d poisoned (campaign testing aid)" i);
      let cell =
        resilience_cell_of ~trace_capacity ?scheduler ?backend ?shape
          ?admission ?economy ?cell_fuel ?weights ?retry_limit ?backoff
          ?checkpoint_every ?deadline ?brownout ~fault_seed ~seed ~jobs ~slots
          ~config templates axes
      in
      (* the supervised failure condition: an accepted completion whose
         end state does not match its fault-free solo run (the
         no-wrong-answers invariant), or one that did not halt — a trap
         is poison, and fuel exhaustion is the deterministic wedged-job
         budget.  Shed and Failed jobs are service outcomes (admission
         control, exhausted retries), not a cell failure. *)
      let reports = Array.of_list cell.rc_result.Chaos.cv_reports in
      List.iter
        (fun (j : Serve.job) ->
          let fail what =
            failwith
              (Printf.sprintf "job %d (%s) %s" j.Serve.j_id j.Serve.j_name what)
          in
          match j.Serve.j_status with
          | Serve.Shed | Serve.Failed _ -> ()
          | Serve.Completed _
            when not reports.(j.Serve.j_id).Chaos.cj_state_ok ->
              fail "accepted with a corrupted end state"
          | Serve.Completed Machine.Halted -> ()
          | Serve.Completed Machine.Out_of_fuel -> fail "ran out of fuel"
          | Serve.Completed (Machine.Trapped m) -> fail ("trapped: " ^ m)
          | Serve.Completed Machine.Running -> assert false)
        cell.rc_result.Chaos.cv_serve.Serve.sv_jobs;
      cell)
    cells
