(* The multiprogramming and fault-campaign grids; see experiment.mli. *)

module Sweep = Uhm_core.Sweep
module Dtb = Uhm_core.Dtb
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace
module Machine = Uhm_machine.Machine

let encode_programs = Uhm_core.Experiment.encode_programs

(* -- The multiprogramming grid ----------------------------------------------- *)

type mix_cell = {
  mc_policy : Dtb.policy;
  mc_scheduler : Scheduler.policy;
  mc_quantum : int;
  mc_config : Dtb.config;
  mc_result : Resilient.result;
  mc_solo_cycles : int list;
}

let cell_format = "mix_cell/2"

let default_quanta = [ 16; 256; Resilient.solo_quantum ]

let mix_axes ?(schedulers = [ Scheduler.Round_robin ])
    ?(quanta = default_quanta) ~policies ~configs () =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun scheduler ->
          List.concat_map
            (fun quantum ->
              List.map (fun config -> (policy, scheduler, quantum, config)) configs)
            quanta)
        schedulers)
    policies

(* a cell's host time scales with the simulated work; small quanta under
   Flush_on_switch retranslate the working set every slice, so weight
   them as longer jobs *)
let mix_cost ~total_steps (policy, _, quantum, _) =
  let slices = max 1 (total_steps / max 1 quantum) in
  total_steps + match policy with Dtb.Flush_on_switch -> slices * 64 | _ -> 0

let mix_grid_slots ?domains ?schedulers ?quanta ?(trace_capacity = 4096)
    ?backend ?supervision ?cached ?cell_hook ?cell_fuel ?(poison = []) ~kind
    ~policies ~configs programs =
  if programs = [] then invalid_arg "Experiment.mix_grid_slots: no programs";
  let encodeds = encode_programs ?domains ~kind programs in
  let total_steps =
    List.fold_left (fun acc (_, _, s) -> acc + s) 0 encodeds
  in
  let encoded_programs = List.map (fun (n, e, _) -> (n, e)) encodeds in
  let cells =
    List.mapi (fun i c -> (i, c)) (mix_axes ?schedulers ?quanta ~policies ~configs ())
  in
  Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains
    ~cost:(fun (_, c) -> mix_cost ~total_steps c)
    (fun (i, (policy, scheduler, quantum, config)) ->
      if List.mem i poison then
        failwith (Printf.sprintf "cell %d poisoned (campaign testing aid)" i);
      let result =
        Resilient.run_encoded ?fuel:cell_fuel ?backend ~trace_capacity
          ~scheduler ~policy ~quantum ~config ~fconfig:Resilient.zero
          encoded_programs
      in
      (* under supervision a cell whose programs did not halt is a failed
         cell (to be retried/quarantined), not a result: a trap is poison,
         and fuel exhaustion is the deterministic wedged-job budget *)
      List.iter
        (fun (pr : Resilient.program_report) ->
          match pr.Resilient.pr_status with
          | Machine.Halted -> ()
          | Machine.Out_of_fuel ->
              failwith (pr.Resilient.pr_name ^ " ran out of fuel")
          | Machine.Trapped m ->
              failwith (pr.Resilient.pr_name ^ " trapped: " ^ m)
          | Machine.Running -> assert false)
        result.Resilient.rr_programs;
      { mc_policy = policy; mc_scheduler = scheduler; mc_quantum = quantum;
        mc_config = config; mc_result = result;
        mc_solo_cycles =
          List.map
            (fun (_, encoded) ->
              (Resilient.solo ?fuel:cell_fuel ?backend ~config encoded)
                .Resilient.sr_cycles)
            encoded_programs })
    cells

(* -- The fault-campaign grid ------------------------------------------------- *)

type point = {
  fp_class : Injector.fault_class;
  fp_rate : float;
  fp_policy : Dtb.policy;
  fp_quantum : int;
  fp_config : Dtb.config;
  fp_seed : int;
  fp_result : Resilient.result;
  fp_baseline_cycles : int;
  fp_recovered_ok : bool;
  fp_overhead : float;
  fp_injected : int;
  fp_detected : int;
  fp_retries : int;
  fp_rollbacks : int;
  fp_downgrades : int;
}

let default_rates = [ 0.; 1e-4; 1e-3; 1e-2 ]

(* A cell's injector seed: derived from the campaign seed and the cell's
   grid position, so any cell can be re-run in isolation. *)
let cell_seed ~seed ~index = seed + ((index + 1) * 7919)

let program_summary (r : Resilient.result) =
  List.map
    (fun (p : Resilient.program_report) ->
      (p.Resilient.pr_status, p.Resilient.pr_output, p.Resilient.pr_arch_hash))
    r.Resilient.rr_programs

let fault_axes ~quanta ~classes ~rates ~policies ~configs () =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun rate ->
          List.concat_map
            (fun policy ->
              List.concat_map
                (fun quantum ->
                  List.map
                    (fun config -> (cls, rate, policy, quantum, config))
                    configs)
                quanta)
            policies)
        rates)
    classes

(* The encodings and the fault-free baselines (one per (policy, quantum,
   config), computed on the pool and shared by every cell) are the
   grid's input, not cells: they stay unsupervised and fail fast. *)
let fault_grid_slots ?domains ?(quanta = [ 64 ]) ?(seed = 1)
    ?(trace_capacity = 4096) ?(retry_limit = 3) ?(backoff_cycles = 64)
    ?(checkpoint_every = 1024) ?(watchdog_window = 4096)
    ?(watchdog_threshold = 8) ?supervision ?cached ?cell_hook ?cell_fuel
    ~kind ~classes ~rates ~policies ~configs programs =
  if programs = [] then invalid_arg "Experiment.fault_grid_slots: no programs";
  if classes = [] || rates = [] || policies = [] || configs = [] || quanta = []
  then invalid_arg "Experiment.fault_grid_slots: empty grid axis";
  let encodeds = encode_programs ?domains ~kind programs in
  let total_steps = List.fold_left (fun acc (_, _, s) -> acc + s) 0 encodeds in
  let encoded_programs = List.map (fun (n, e, _) -> (n, e)) encodeds in
  (* fault-free baselines, one per (policy, quantum, config) *)
  let baseline_keys =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun quantum ->
            List.map (fun config -> (policy, quantum, config)) configs)
          quanta)
      policies
  in
  let baselines =
    Sweep.map ?domains
      (fun (policy, quantum, config) ->
        let r =
          Resilient.run_encoded ~trace_capacity:1 ~policy ~quantum ~config
            ~fconfig:Resilient.zero encoded_programs
        in
        ((policy, quantum, config), (program_summary r, r.Resilient.rr_makespan)))
      baseline_keys
  in
  let cells =
    fault_axes ~quanta ~classes ~rates ~policies ~configs ()
    |> List.mapi (fun index cell -> (index, cell))
  in
  let cost (_, (cls, rate, policy, quantum, _)) =
    let slices = max 1 (total_steps / max 1 quantum) in
    total_steps
    + (match policy with Dtb.Flush_on_switch -> slices * 64 | _ -> 0)
    + int_of_float (float_of_int total_steps *. rate *. 100.)
    + (if cls = Injector.Mem_word then total_steps / 4 else 0)
  in
  let point_of (index, (cls, rate, policy, quantum, config)) =
    let fseed = cell_seed ~seed ~index in
    let fconfig =
      {
        Resilient.injector =
          { Injector.seed = fseed; rates = [ (cls, rate) ]; explicit = [] };
        guards = true;
        checkpoint_every =
          (if cls = Injector.Mem_word then Some checkpoint_every else None);
        retry_limit;
        backoff_cycles;
        watchdog_window;
        watchdog_threshold;
      }
    in
    let result =
      Resilient.run_encoded ?fuel:cell_fuel ~trace_capacity ~policy ~quantum
        ~config ~fconfig encoded_programs
    in
    (* fuel exhaustion is the deterministic wedged-cell budget: it fails
       the cell (supervised grids quarantine it) instead of reporting a
       meaningless point.  A trapped program, by contrast, is a recovery
       *verdict* — it shows up as fp_recovered_ok = false. *)
    List.iter
      (fun (p : Resilient.program_report) ->
        match p.Resilient.pr_status with
        | Machine.Out_of_fuel ->
            failwith (p.Resilient.pr_name ^ " ran out of fuel")
        | _ -> ())
      result.Resilient.rr_programs;
    let base_summary, base_cycles =
      List.assoc (policy, quantum, config) baselines
    in
    let recovered_ok = program_summary result = base_summary in
    let overhead =
      if base_cycles = 0 then 0.
      else
        float_of_int result.Resilient.rr_makespan
        /. float_of_int base_cycles
    in
    let sum f =
      List.fold_left
        (fun acc p -> acc + f p)
        0 result.Resilient.rr_programs
    in
    let downgrades =
      List.fold_left
        (fun acc (_, c) -> acc + c.Trace.c_downgrades)
        0
        (Trace.tallies result.Resilient.rr_trace)
    in
    {
      fp_class = cls;
      fp_rate = rate;
      fp_policy = policy;
      fp_quantum = quantum;
      fp_config = config;
      fp_seed = fseed;
      fp_result = result;
      fp_baseline_cycles = base_cycles;
      fp_recovered_ok = recovered_ok;
      fp_overhead = overhead;
      fp_injected = sum (fun p -> p.Resilient.pr_injected);
      fp_detected = sum (fun p -> p.Resilient.pr_detected);
      fp_retries = sum (fun p -> p.Resilient.pr_retries);
      fp_rollbacks = sum (fun p -> p.Resilient.pr_rollbacks);
      fp_downgrades = downgrades;
    }
  in
  Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains ~cost point_of
    cells
