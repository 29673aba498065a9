(* The resilience driver: time-sliced execution over a shared DTB with
   fault injection, guarded translations, checkpoint rollback and
   watchdog downgrade; see resilient.mli.

   The scheduling loop is round-robin, modeled line-for-line on
   [Uhm_sched.Scheduler.run] so that with the zero config (no faults, no
   guards, no checkpoints) the run is cycle-identical — including the
   event trace — to [Uhm_sched.Mix.run_encoded]; a differential test
   pins that equivalence. *)

module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module SF = Uhm_machine.Short_format
module R = Uhm_machine.Host_isa.Regs
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Trace = Uhm_sched.Trace

type config = {
  injector : Injector.spec;
  guards : bool;
  checkpoint_every : int option;
  retry_limit : int;
  backoff_cycles : int;
  watchdog_window : int;
  watchdog_threshold : int;
}

let zero =
  {
    injector = Injector.zero;
    guards = false;
    checkpoint_every = None;
    retry_limit = 3;
    backoff_cycles = 64;
    watchdog_window = 4096;
    watchdog_threshold = 8;
  }

let protected ?(checkpoint_every = 1024) injector =
  {
    zero with
    injector;
    guards = true;
    checkpoint_every =
      (if Injector.can_inject injector Injector.Mem_word then
         Some checkpoint_every
       else None);
  }

type program_report = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;
  pr_slices : int;
  pr_arch_hash : int;
  pr_downgraded : bool;
  pr_injected : int;
  pr_detected : int;
  pr_retries : int;
  pr_rollbacks : int;
}

type result = {
  rr_policy : Dtb.policy;
  rr_quantum : int;
  rr_config : Dtb.config;
  rr_fconfig : config;
  rr_programs : program_report list;
  rr_total_cycles : int;
  rr_switches : int;
  rr_flushes : int;
  rr_trace : Trace.t;
}

type mode = Translating | Downgraded

type proc = {
  asid : int;
  name : string;
  encoded : Codec.encoded;
  inj : Injector.t;
  guard : Guard.t;
  retries : (int, int) Hashtbl.t; (* dir_addr -> recovery attempts *)
  watchdog : int Queue.t;         (* steps of recent recovery events *)
  mutable machine : Machine.t;
  mutable mode : mode;
  mutable translating : int option; (* dir_addr of the open install *)
  mutable doomed : bool;            (* armed translator fault *)
  mutable ck : Machine.checkpoint option;
  mutable ck_step : int;
  mutable outstanding : int list;   (* data addresses hit by Mem_word faults *)
  mutable downgrade_pending : bool;
  mutable finished : Machine.status option;
  mutable out_prefix : string;      (* output produced before downgrade *)
  mutable base_cycles : int;        (* cycles accumulated pre-downgrade *)
  mutable slices : int;
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable rolled_back : int;
}

(* The architectural-state fingerprint behind the recovery invariant:
   frame/stack registers plus every live operand-stack and data word.
   Scratch registers and host-side bookkeeping are deliberately excluded;
   a downgraded program's state hashes identically to a translated one's. *)
let fingerprint_mask = (1 lsl 58) - 1

let arch_fingerprint ~(layout : Layout.t) m =
  let mix h v = ((h * 1000003) + v) land fingerprint_mask in
  let sp = Machine.reg m R.sp
  and fp = Machine.reg m R.fp
  and dtop = Machine.reg m R.dtop in
  let h = ref (mix (mix (mix 0 sp) fp) dtop) in
  for a = layout.Layout.op_stack_base to sp - 1 do
    h := mix !h (Machine.peek m a)
  done;
  for a = layout.Layout.data_base to dtop - 1 do
    h := mix !h (Machine.peek m a)
  done;
  !h

(* How many cycles one DIR instruction of pure interpretation is worth
   when converting the scheduler's DIR-step quantum into a cycle budget
   for a downgraded (run_for-sliced) machine. *)
let interp_cycles_per_dir = 64

(* Carry a translating machine's architectural state over to a fresh
   pure-interpretation machine of the same program: stacks, frames, data
   and the decode position.  [m_old] must be suspended at a slice
   boundary, which for a Translating machine rests on an INTERP word. *)
let graft_interp ~(layout : Layout.t) m_old m_new =
  let dir_addr, dctx, sp_pops =
    match Machine.pc m_old with
    | Machine.Short a -> (
        let w = Machine.peek m_old a in
        match SF.op_of_int (SF.unpack_op w) with
        | SF.Interp_imm -> (SF.unpack_operand w, SF.unpack_ctx w, 0)
        | SF.Interp_stk ->
            let sp = Machine.reg m_old R.sp in
            (Machine.peek m_old (sp - 1), Machine.peek m_old (sp - 2), 2)
        | _ -> assert false)
    | Machine.Long _ -> assert false
  in
  let sp = Machine.reg m_old R.sp - sp_pops in
  Machine.set_reg m_new R.sp sp;
  Machine.set_reg m_new R.rsp (Machine.reg m_old R.rsp);
  Machine.set_reg m_new R.fp (Machine.reg m_old R.fp);
  Machine.set_reg m_new R.dtop (Machine.reg m_old R.dtop);
  Machine.set_reg m_new R.ctx (Machine.reg m_old R.ctx);
  Machine.set_reg m_new R.dpc dir_addr;
  Machine.set_reg m_new R.dctx dctx;
  let copy_range base limit =
    for a = base to limit - 1 do
      Machine.poke m_new a (Machine.peek m_old a)
    done
  in
  copy_range layout.Layout.op_stack_base sp;
  copy_range layout.Layout.ret_stack_base (Machine.reg m_old R.rsp);
  copy_range layout.Layout.data_base (Machine.reg m_old R.dtop)

let run_encoded ?(timing = Timing.paper) ?fuel ?(layout = Layout.default)
    ?backend ?(trace_capacity = 65536) ~policy ~quantum ~config ~fconfig
    (programs : (string * Codec.encoded) list) =
  if programs = [] then invalid_arg "Resilient.run_encoded: no programs";
  if quantum < 1 then
    invalid_arg "Resilient.run_encoded: quantum must be >= 1";
  let mem_faults = Injector.can_inject fconfig.injector Injector.Mem_word in
  if mem_faults && fconfig.checkpoint_every = None then
    invalid_arg
      "Resilient.run_encoded: Mem_word faults require checkpoint_every";
  let n = List.length programs in
  let buffer_base = layout.Layout.dtb_buffer_base + 1 in
  let dtb = Dtb.create_shared ~policy ~programs:n config ~buffer_base in
  let buffer_words = Dtb.buffer_words dtb in
  let trace = Trace.create ~capacity:trace_capacity () in
  let t_dtb = timing.Timing.t_dtb
  and t_guard = timing.Timing.t_guard
  and t2 = timing.Timing.t2 in
  let clock = ref 0 in
  let slice_c0 = ref 0 in
  (* global virtual time mid-dispatch: clock at slice start plus what the
     current program has run since (matching Scheduler.run's trace tap) *)
  let vtime p =
    !clock + p.base_cycles + (Machine.stats p.machine).Machine.cycles
    - !slice_c0
  in
  let tell_now kind = Trace.record trace ~at_cycle:!clock kind in
  let tell_v p kind = Trace.record trace ~at_cycle:(vtime p) kind in
  let recovery_event p ~step =
    Queue.push step p.watchdog;
    while
      (not (Queue.is_empty p.watchdog))
      && Queue.peek p.watchdog < step - fconfig.watchdog_window
    do
      ignore (Queue.pop p.watchdog)
    done;
    if Queue.length p.watchdog >= fconfig.watchdog_threshold then
      p.downgrade_pending <- true
  in
  let make_proc asid (name, encoded) =
    let self = ref None in
    let p_of () =
      match !self with Some p -> p | None -> assert false
    in
    let apply_fault m (f : Injector.fault) =
      let p = p_of () in
      let applied =
        match f.Injector.f_class with
        | Injector.Dtb_tag ->
            Dtb.corrupt_resident_tag dtb ~pick:f.Injector.f_r1
              ~flip:f.Injector.f_r2
            <> None
        | Injector.Psder_word ->
            let addr = buffer_base + (f.Injector.f_r1 mod buffer_words) in
            Machine.poke m addr
              (Machine.peek m addr lxor (1 lsl (f.Injector.f_r2 mod 16)));
            true
        | Injector.Translator ->
            p.doomed <- true;
            true
        | Injector.Mem_word ->
            let base = layout.Layout.data_base in
            let dtop = Machine.reg m R.dtop in
            if dtop <= base then false
            else begin
              let addr = base + (f.Injector.f_r1 mod (dtop - base)) in
              Machine.poke m addr
                (Machine.peek m addr lxor (1 lsl (f.Injector.f_r2 mod 31)));
              p.outstanding <- addr :: p.outstanding;
              true
            end
      in
      if applied then begin
        p.injected <- p.injected + 1;
        tell_v p
          (Trace.Fault_injected
             { asid = p.asid; fclass = Injector.class_name f.Injector.f_class })
      end
    in
    let start_translation m ~translator_entry ~dir_addr ~dctx =
      let p = p_of () in
      tell_v p (Trace.Translation { asid = p.asid; dir_addr });
      if fconfig.guards then begin
        Guard.begin_install p.guard;
        Machine.add_cycles m t_guard (* flat checksum-seed cost at install *)
      end;
      p.translating <- Some dir_addr;
      Dtb.begin_translation dtb ~tag:dir_addr;
      Machine.set_reg m R.dpc dir_addr;
      Machine.set_reg m R.dctx dctx;
      Machine.set_pc m (Machine.Long translator_entry)
    in
    let detect m ~translator_entry ~dir_addr ~dctx ~fclass ~checked_words =
      let p = p_of () in
      Machine.add_cycles m (t_guard * max 1 checked_words);
      p.detected <- p.detected + 1;
      tell_v p (Trace.Fault_detected { asid = p.asid; fclass });
      let step = (Machine.stats m).Machine.interp_count in
      recovery_event p ~step;
      let attempts =
        1 + Option.value ~default:0 (Hashtbl.find_opt p.retries dir_addr)
      in
      Hashtbl.replace p.retries dir_addr attempts;
      if attempts > fconfig.retry_limit then p.downgrade_pending <- true;
      Machine.add_cycles m
        (fconfig.backoff_cycles * (1 lsl min (attempts - 1) 6));
      p.retried <- p.retried + 1;
      tell_v p (Trace.Recovery_retry { asid = p.asid; dir_addr; attempt = attempts });
      ignore (Dtb.invalidate dtb ~tag:dir_addr);
      start_translation m ~translator_entry ~dir_addr ~dctx
    in
    let make_interp ~translator_entry m ~dir_addr ~dctx =
      let p = p_of () in
      let step = (Machine.stats m).Machine.interp_count in
      (match Injector.due p.inj ~step with
      | [] -> ()
      | faults -> List.iter (apply_fault m) faults);
      Machine.add_cycles m t_dtb;
      match Dtb.lookup dtb ~tag:dir_addr with
      | `Hit buffer_addr ->
          if not fconfig.guards then
            Machine.set_pc m (Machine.Short buffer_addr)
          else begin
            match
              Guard.check p.guard ~peek:(Machine.peek m) ~dir_addr
                ~start_addr:buffer_addr
            with
            | `Ok words ->
                Machine.add_cycles m (t_guard * words);
                Machine.set_pc m (Machine.Short buffer_addr)
            | `Mismatch | `Unguarded ->
                (* a different (or no) DIR address answered: the tag array
                   lied — drop the aliased entry and retranslate *)
                Guard.drop p.guard ~start_addr:buffer_addr;
                detect m ~translator_entry ~dir_addr ~dctx ~fclass:"dtb-tag"
                  ~checked_words:1
            | `Corrupt words ->
                Guard.drop p.guard ~start_addr:buffer_addr;
                detect m ~translator_entry ~dir_addr ~dctx
                  ~fclass:"psder-word" ~checked_words:words
          end
      | `Miss -> start_translation m ~translator_entry ~dir_addr ~dctx
    in
    let on_emit ~addr ~word =
      if fconfig.guards then Guard.on_emit (p_of ()).guard ~addr ~word
    in
    let on_end_translation ~start_addr =
      let p = p_of () in
      let dir_addr =
        match p.translating with Some d -> d | None -> assert false
      in
      p.translating <- None;
      if p.doomed then begin
        (* translator failure mid-install: the words are in the buffer and
           the current transfer still executes them, but the directory
           entry is lost — the next INTERP of this DIR address re-misses *)
        p.doomed <- false;
        ignore (Dtb.invalidate dtb ~tag:dir_addr);
        Guard.abandon p.guard;
        Guard.drop p.guard ~start_addr
      end
      else if fconfig.guards then
        Guard.finish_install p.guard ~dir_addr ~start_addr
    in
    let machine, _translator_entry =
      U.prepare_dtb_custom ~timing ?fuel ~layout ?backend ~on_emit
        ~on_end_translation ~make_interp ~dtb encoded
    in
    let p =
      {
        asid;
        name;
        encoded;
        inj = Injector.create fconfig.injector ~asid;
        guard = Guard.create ();
        retries = Hashtbl.create 16;
        watchdog = Queue.create ();
        machine;
        mode = Translating;
        translating = None;
        doomed = false;
        ck = None;
        ck_step = 0;
        outstanding = [];
        downgrade_pending = false;
        finished = None;
        out_prefix = "";
        base_cycles = 0;
        slices = 0;
        injected = 0;
        detected = 0;
        retried = 0;
        rolled_back = 0;
      }
    in
    self := Some p;
    p
  in
  let take_checkpoint p =
    let ck = Machine.checkpoint p.machine in
    (* page traffic to stable (level-2) storage *)
    Machine.add_cycles p.machine (t2 * Machine.checkpoint_pages ck);
    p.ck <- Some ck;
    p.ck_step <- (Machine.stats p.machine).Machine.interp_count
  in
  let scrub_and_rollback p =
    if p.outstanding <> [] then begin
      let m = p.machine in
      let step = (Machine.stats m).Machine.interp_count in
      List.iter
        (fun _ ->
          p.detected <- p.detected + 1;
          tell_v p
            (Trace.Fault_detected
               { asid = p.asid;
                 fclass = Injector.class_name Injector.Mem_word });
          recovery_event p ~step)
        p.outstanding;
      let ck = match p.ck with Some ck -> ck | None -> assert false in
      Machine.restore m ck;
      Machine.add_cycles m (t2 * Machine.checkpoint_pages ck);
      (* the restored memory predates some installed translations: drop
         this program's directory entries (and their guards) so every
         working-set entry re-translates against the rewound image *)
      (match Dtb.sharing dtb with
      | (Some Dtb.Tagged | Some Dtb.Partitioned) when n > 1 ->
          ignore (Dtb.invalidate_asid dtb ~asid:p.asid)
      | _ -> Dtb.flush dtb);
      Guard.clear p.guard;
      p.outstanding <- [];
      p.finished <- None;
      p.rolled_back <- p.rolled_back + 1;
      tell_v p
        (Trace.Rollback { asid = p.asid; pages = Machine.checkpoint_pages ck })
    end
  in
  let downgrade p =
    let m_old = p.machine in
    (* the downgraded interpreter keeps the mix's execution backend *)
    let m_new = U.prepare_interp ~timing ?fuel ~layout ?backend p.encoded in
    graft_interp ~layout m_old m_new;
    p.out_prefix <- p.out_prefix ^ Machine.output m_old;
    p.base_cycles <- p.base_cycles + (Machine.stats m_old).Machine.cycles;
    Machine.recycle m_old;
    p.machine <- m_new;
    p.mode <- Downgraded;
    p.downgrade_pending <- false;
    p.ck <- None;
    tell_v p (Trace.Downgrade { asid = p.asid })
  in
  let procs = Array.of_list (List.mapi make_proc programs) in
  let switches = ref 0 in
  let flushes0 = Dtb.flushes dtb in
  let last_index = ref (-1) in
  let pick () =
    let rec scan k =
      if k = n then None
      else
        let i = (!last_index + 1 + k) mod n in
        if procs.(i).finished = None then Some i else scan (k + 1)
    in
    scan 0
  in
  let running = ref true in
  while !running do
    match pick () with
    | None -> running := false
    | Some i ->
        let p = procs.(i) in
        if i <> !last_index then begin
          let from_asid =
            if !last_index < 0 then None else Some procs.(!last_index).asid
          in
          let before = Dtb.flushes dtb in
          (* downgraded programs no longer consult the DTB, but the switch
             still changes the current address space — under
             Flush_on_switch that flush is part of the policy's cost *)
          Dtb.switch_to dtb ~asid:p.asid;
          incr switches;
          tell_now (Trace.Switch { from_asid; to_asid = p.asid });
          if Dtb.flushes dtb > before then
            tell_now (Trace.Dtb_flush { asid = p.asid })
        end;
        last_index := i;
        let c0 = p.base_cycles + (Machine.stats p.machine).Machine.cycles in
        slice_c0 := c0;
        if mem_faults && p.mode = Translating && p.ck = None then
          take_checkpoint p;
        let outcome =
          match p.mode with
          | Translating -> Machine.run_dir_quantum p.machine ~quantum
          | Downgraded ->
              let budget =
                if quantum > max_int / interp_cycles_per_dir then max_int
                else quantum * interp_cycles_per_dir
              in
              Machine.run_for p.machine ~budget
        in
        p.slices <- p.slices + 1;
        (match outcome with
        | Machine.Done status -> p.finished <- Some status
        | Machine.Yielded -> ());
        (* A running machine only yields at INTERP boundaries, but a
           fault-corrupted one can die with an error status mid-install,
           leaving the shared directory's translation open.  Close it
           here so flush/invalidate (rollback below, or the next
           Flush_on_switch switch) find the DTB quiescent. *)
        (match p.translating with
        | Some _ ->
            Dtb.abort_translation dtb;
            if fconfig.guards then Guard.abandon p.guard;
            p.translating <- None;
            p.doomed <- false
        | None -> ());
        if p.mode = Translating then begin
          scrub_and_rollback p;
          if p.finished = None then
            if p.downgrade_pending then downgrade p
            else if mem_faults then
              match fconfig.checkpoint_every with
              | Some every
                when (Machine.stats p.machine).Machine.interp_count
                     - p.ck_step
                     >= every ->
                  take_checkpoint p
              | _ -> ()
        end;
        let now = p.base_cycles + (Machine.stats p.machine).Machine.cycles in
        clock := !clock + (now - c0);
        (match p.finished with
        | Some status ->
            tell_now
              (Trace.Completion { asid = p.asid; ok = status = Machine.Halted })
        | None -> tell_now (Trace.Quantum_expiry { asid = p.asid }))
  done;
  let reports =
    Array.to_list procs
    |> List.map (fun p ->
           let stats = Machine.stats p.machine in
           let r =
             {
               pr_name = p.name;
               pr_asid = p.asid;
               pr_status =
                 (match p.finished with Some s -> s | None -> assert false);
               pr_output = p.out_prefix ^ Machine.output p.machine;
               pr_cycles = p.base_cycles + stats.Machine.cycles;
               pr_slices = p.slices;
               pr_arch_hash = arch_fingerprint ~layout p.machine;
               pr_downgraded = p.mode = Downgraded;
               pr_injected = p.injected;
               pr_detected = p.detected;
               pr_retries = p.retried;
               pr_rollbacks = p.rolled_back;
             }
           in
           Machine.recycle p.machine;
           r)
  in
  {
    rr_policy = policy;
    rr_quantum = quantum;
    rr_config = config;
    rr_fconfig = fconfig;
    rr_programs = reports;
    rr_total_cycles = !clock;
    rr_switches = !switches;
    rr_flushes = Dtb.flushes dtb - flushes0;
    rr_trace = trace;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)
