(* The multiprogramming experiment grid; see experiment.mli. *)

module Sweep = Uhm_core.Sweep
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Machine = Uhm_machine.Machine

type mix_cell = {
  mc_policy : Dtb.policy;
  mc_scheduler : Scheduler.policy;
  mc_quantum : int;
  mc_config : Dtb.config;
  mc_result : Mix.result;
}

let default_quanta = [ 16; 256; Mix.solo_quantum ]

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

(* encode once, in parallel; the per-program dir_steps computed here are
   both the SRTF estimates and the sweep cost hints *)
let mix_encodeds ?domains ~kind programs =
  Sweep.map ?domains
    (fun (name, p) -> (name, Codec.encode kind p, U.dir_steps_memoized p))
    programs

let mix_cell_of ~trace_capacity ?fuel ?backend encoded_programs
    (policy, scheduler, quantum, config) =
  {
    mc_policy = policy;
    mc_scheduler = scheduler;
    mc_quantum = quantum;
    mc_config = config;
    mc_result =
      Mix.run_encoded ?fuel ?backend ~trace_capacity ~scheduler ~policy
        ~quantum ~config encoded_programs;
  }

let mix_grid_slots ?domains ?schedulers ?quanta ?(trace_capacity = 4096)
    ?backend ?supervision ?cached ?cell_hook ?cell_fuel ?(poison = []) ~kind
    ~policies ~configs programs =
  if programs = [] then invalid_arg "Experiment.mix_grid_slots: no programs";
  let encodeds = mix_encodeds ?domains ~kind programs in
  let total_steps =
    List.fold_left (fun acc (_, _, s) -> acc + s) 0 encodeds
  in
  let encoded_programs = List.map (fun (n, e, _) -> (n, e)) encodeds in
  let cells =
    List.mapi (fun i c -> (i, c)) (mix_axes ?schedulers ?quanta ~policies ~configs ())
  in
  Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains
    ~cost:(fun (_, c) -> mix_cost ~total_steps c)
    (fun (i, axes) ->
      if List.mem i poison then
        failwith (Printf.sprintf "cell %d poisoned (campaign testing aid)" i);
      let cell =
        mix_cell_of ~trace_capacity ?fuel:cell_fuel ?backend encoded_programs
          axes
      in
      (* under supervision a cell whose programs did not halt is a failed
         cell (to be retried/quarantined), not a result: a trap is poison,
         and fuel exhaustion is the deterministic wedged-job budget *)
      List.iter
        (fun (pr : Mix.program_result) ->
          match pr.Mix.pr_status with
          | Machine.Halted -> ()
          | Machine.Out_of_fuel ->
              failwith (pr.Mix.pr_name ^ " ran out of fuel")
          | Machine.Trapped m ->
              failwith (pr.Mix.pr_name ^ " trapped: " ^ m)
          | Machine.Running -> assert false)
        cell.mc_result.Mix.mr_programs;
      cell)
    cells
