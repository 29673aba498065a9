(* The closed-mix driver: a fixed program mix sliced over a shared DTB,
   each program under the fault machinery of the Tenant engine; see
   resilient.mli.  At the zero config it is the plain multiprogrammed
   mix, and one program at the never-preempt quantum is the solo run. *)

module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module Dtb = Uhm_core.Dtb
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace

include Tenant

type program_report = {
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
  pr_arch_hash : int;
  pr_downgraded : bool;
  pr_injected : int;
  pr_detected : int;
  pr_retries : int;
  pr_rollbacks : int;
}

type result = {
  rr_policy : Dtb.policy;
  rr_scheduler : Scheduler.policy;
  rr_quantum : int;
  rr_config : Dtb.config;
  rr_fconfig : config;
  rr_programs : program_report list;
  rr_makespan : int;
  rr_switches : int;
  rr_flushes : int;
  rr_hit_ratio : float;
  rr_evictions : int;
  rr_trace : Trace.t;
}

let run_encoded ?(timing = Timing.paper) ?fuel ?(layout = Layout.default)
    ?backend ?(trace_capacity = 65536) ?(scheduler = Scheduler.Round_robin)
    ~policy ~quantum ~config ~fconfig
    (programs : (string * Codec.encoded) list) =
  if programs = [] then invalid_arg "Resilient.run_encoded: no programs";
  if quantum < 1 then
    invalid_arg "Resilient.run_encoded: quantum must be >= 1";
  if Injector.can_inject fconfig.injector Injector.Mem_word
     && fconfig.checkpoint_every = None
  then
    invalid_arg
      "Resilient.run_encoded: Mem_word faults require checkpoint_every";
  let n = List.length programs in
  let buffer_base = layout.Layout.dtb_buffer_base + 1 in
  let dtb = Dtb.create_shared ~policy ~programs:n config ~buffer_base in
  let trace = Trace.create ~capacity:trace_capacity () in
  let env =
    Tenant.env ~timing ?fuel ~layout ?backend ~dtb ~trace
      ~tagged_keys:(policy <> Dtb.Flush_on_switch && n > 1)
      ~on_detect:(fun _ _ -> ())
      fconfig
  in
  let procs =
    Array.of_list
      (List.mapi
         (fun asid (_, encoded) ->
           Tenant.create env ~asid ~stream:asid ~interp0:false encoded)
         programs)
  in
  (* DTB activity during each program's slices (an eviction is charged
     to the program whose miss performed it, whoever owned the victim) *)
  let hits = Array.make n 0
  and misses = Array.make n 0
  and evictions = Array.make n 0 in
  let clock = ref 0 in
  let switches = ref 0 in
  let flushes0 = Dtb.flushes dtb in
  let last = ref (-1) in
  let rec loop () =
    match
      Scheduler.pick ~policy:scheduler ~slots:n ~last:!last
        ~remaining:(fun i -> Tenant.remaining procs.(i))
    with
    | None -> ()
    | Some i ->
        let p = procs.(i) in
        (* downgraded programs no longer consult the DTB, but the switch
           still changes the current address space — under
           Flush_on_switch that flush is part of the policy's cost *)
        if i <> !last then begin
          let from_asid = if !last < 0 then None else Some !last in
          Scheduler.switch ~trace dtb ~at:!clock ~from_asid ~to_asid:i;
          incr switches
        end;
        last := i;
        let h0 = Dtb.hits dtb and m0 = Dtb.misses dtb
        and e0 = Dtb.evictions dtb in
        clock := !clock + Tenant.slice env p ~clock:!clock ~quantum;
        hits.(i) <- hits.(i) + (Dtb.hits dtb - h0);
        misses.(i) <- misses.(i) + (Dtb.misses dtb - m0);
        evictions.(i) <- evictions.(i) + (Dtb.evictions dtb - e0);
        Trace.record trace ~at_cycle:!clock
          (match p.finished with
          | Some status -> Trace.Completion { asid = i; ok = status = Machine.Halted }
          | None -> Trace.Quantum_expiry { asid = i });
        loop ()
  in
  loop ();
  let reports =
    List.mapi
      (fun i (name, _) ->
        let p = procs.(i) in
        let output, hash, _ = Tenant.end_state env p in
        let r =
          {
            pr_name = name;
            pr_asid = i;
            pr_status =
              (match p.finished with Some s -> s | None -> assert false);
            pr_output = output;
            pr_cycles = Tenant.cycles p;
            pr_dir_steps = p.dir_steps;
            pr_slices = p.slices;
            pr_dtb_hits = hits.(i);
            pr_dtb_misses = misses.(i);
            pr_dtb_evictions = evictions.(i);
            pr_arch_hash = hash;
            pr_downgraded = p.mode = Downgraded;
            pr_injected = p.injected;
            pr_detected = p.detected;
            pr_retries = p.retried;
            pr_rollbacks = p.rolled_back;
          }
        in
        Machine.recycle p.machine;
        r)
      programs
  in
  {
    rr_policy = policy;
    rr_scheduler = scheduler;
    rr_quantum = quantum;
    rr_config = config;
    rr_fconfig = fconfig;
    rr_programs = reports;
    rr_makespan = !clock;
    rr_switches = !switches;
    rr_flushes = Dtb.flushes dtb - flushes0;
    rr_hit_ratio = Dtb.hit_ratio dtb;
    rr_evictions = Dtb.evictions dtb;
    rr_trace = trace;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ~policy
    ~quantum ~config ~fconfig ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler
    ~policy ~quantum ~config ~fconfig
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)

(* -- The solo run ------------------------------------------------------------

   One program alone on the machine: the reference every multiprogrammed
   figure is measured against.  Cached on the encoding (re-encoding the
   same source gives a new cache), keyed structurally on everything else
   the run depends on, so every caller that holds the encoding, on any
   domain, simulates it once.  The backend is not in the key: the two
   backends are pinned result-identical. *)

let solo_quantum = max_int

type solo_result = {
  sr_status : Machine.status;
  sr_output : string;
  sr_arch_hash : int;
  sr_cycles : int;
}

let solo_key = Uhm_derived.Derived.key ()

let solo ?(timing = Timing.paper) ?fuel ?(layout = Layout.default) ?backend
    ~config (encoded : Codec.encoded) =
  Uhm_derived.Derived.get encoded.Codec.derived solo_key
    (config, timing, fuel, layout) (fun () ->
      let p =
        List.hd
          (run_encoded ~timing ?fuel ~layout ?backend ~trace_capacity:16
             ~policy:Dtb.Flush_on_switch ~quantum:solo_quantum ~config
             ~fconfig:zero [ ("solo", encoded) ])
            .rr_programs
      in
      { sr_status = p.pr_status; sr_output = p.pr_output;
        sr_arch_hash = p.pr_arch_hash; sr_cycles = p.pr_cycles })

let slowdown ~cycles ~solo =
  if solo = 0 then 1. else float_of_int cycles /. float_of_int solo
