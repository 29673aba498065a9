(* The multiprogramming mix: the closed-mix driver at the zero fault
   config, plus the fairness figures; see mix.mli. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace

type program_result = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;
  pr_dir_steps : int;
  pr_slices : int;
  pr_dtb_hits : int;
  pr_dtb_misses : int;
  pr_dtb_evictions : int;
  pr_hit_ratio : float;
  pr_solo_cycles : int;
  pr_slowdown : float;
}

(* -- Slowdown vs solo --------------------------------------------------------

   The fairness metric: how much longer a program ran inside the mix than
   it would have run alone on the same machine and DTB geometry.  The solo
   cycle count is a plain single-program [Dtb_strategy] run, memoised like
   [Uhm.dir_steps_memoized] — bounded, mutex-protected, keyed physically
   on the program (re-encoding the same source gives a new key) and
   structurally on everything the cycle count depends on.  Races fill the
   same entry twice, which is wasted work but never wrong. *)

type solo_key = {
  sk_program : Uhm_dir.Program.t;  (* compared physically *)
  sk_config : Dtb.config;
  sk_timing : Uhm_machine.Timing.t option;
  sk_fuel : int option;
}

let solo_mutex = Mutex.create ()
let solo_memo : (solo_key * int) list ref = ref []
let solo_memo_max = 128

let solo_cycles ?timing ?fuel ~config (encoded : Codec.encoded) =
  let key =
    { sk_program = encoded.Codec.program; sk_config = config;
      sk_timing = timing; sk_fuel = fuel }
  in
  let same k =
    k.sk_program == key.sk_program
    && k.sk_config = key.sk_config
    && k.sk_timing = key.sk_timing
    && k.sk_fuel = key.sk_fuel
  in
  let cached =
    Mutex.lock solo_mutex;
    let r = List.find_opt (fun (k, _) -> same k) !solo_memo in
    Mutex.unlock solo_mutex;
    r
  in
  match cached with
  | Some (_, cycles) -> cycles
  | None ->
      let r =
        U.run_encoded ?timing ?fuel ~strategy:(U.Dtb_strategy config) encoded
      in
      let cycles = r.U.cycles in
      Mutex.lock solo_mutex;
      let rest =
        let others = List.filter (fun (k, _) -> not (same k)) !solo_memo in
        if List.length others >= solo_memo_max then
          List.filteri (fun i _ -> i < solo_memo_max - 1) others
        else others
      in
      solo_memo := (key, cycles) :: rest;
      Mutex.unlock solo_mutex;
      cycles

type result = {
  mr_policy : Dtb.policy;
  mr_scheduler : Scheduler.policy;
  mr_quantum : int;
  mr_config : Dtb.config;
  mr_programs : program_result list;
  mr_makespan : int;
  mr_switches : int;
  mr_flushes : int;
  mr_hit_ratio : float;
  mr_evictions : int;
  mr_trace : Trace.t;
}

let run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler
    ~policy ~quantum ~config (programs : (string * Codec.encoded) list) =
  let r =
    Resilient.run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity
      ?scheduler ~policy ~quantum ~config ~fconfig:Resilient.zero programs
  in
  let program_result (p : Resilient.program_report) (_, encoded) =
    let looked_up = p.Resilient.pr_dtb_hits + p.Resilient.pr_dtb_misses in
    let solo = solo_cycles ?timing ?fuel ~config encoded in
    {
      pr_name = p.Resilient.pr_name;
      pr_asid = p.Resilient.pr_asid;
      pr_status = p.Resilient.pr_status;
      pr_output = p.Resilient.pr_output;
      pr_cycles = p.Resilient.pr_cycles;
      pr_dir_steps = U.dir_steps_memoized encoded.Codec.program;
      pr_slices = p.Resilient.pr_slices;
      pr_dtb_hits = p.Resilient.pr_dtb_hits;
      pr_dtb_misses = p.Resilient.pr_dtb_misses;
      pr_dtb_evictions = p.Resilient.pr_dtb_evictions;
      pr_hit_ratio =
        (if looked_up = 0 then 0.
         else float_of_int p.Resilient.pr_dtb_hits /. float_of_int looked_up);
      pr_solo_cycles = solo;
      pr_slowdown =
        (if solo = 0 then 1.
         else float_of_int p.Resilient.pr_cycles /. float_of_int solo);
    }
  in
  {
    mr_policy = policy;
    mr_scheduler = r.Resilient.rr_scheduler;
    mr_quantum = quantum;
    mr_config = config;
    mr_programs = List.map2 program_result r.Resilient.rr_programs programs;
    mr_makespan = r.Resilient.rr_makespan;
    mr_switches = r.Resilient.rr_switches;
    mr_flushes = r.Resilient.rr_flushes;
    mr_hit_ratio = r.Resilient.rr_hit_ratio;
    mr_evictions = r.Resilient.rr_evictions;
    mr_trace = r.Resilient.rr_trace;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ~policy
    ~quantum ~config ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ~policy
    ~quantum ~config
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)

let solo_quantum = max_int
