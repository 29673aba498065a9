(* The per-program resilient-attempt engine; see tenant.mli.

   One program on one machine over a shared DTB, with every fault hook:
   injection at INTERP boundaries, guarded hits with
   invalidate-retranslate and backoff, dropped installs, checkpoint
   rollback and watchdog downgrade.  Resilient.run_encoded (and through
   it the closed mix and the solo run) and the serve kernel all slice
   their programs through [slice] below. *)

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

type env = {
  timing : Timing.t;
  fuel : int option;
  layout : Layout.t;
  backend : Machine.backend option;
  dtb : Dtb.t;
  trace : Trace.t;
  fc : config;
  tagged_keys : bool;
  on_detect : int -> int -> unit;
  armed : bool;      (* the injector can fire *)
  mem_faults : bool; (* ... and can hit the data region: checkpoints on *)
}

let env ~timing ?fuel ~layout ?backend ~dtb ~trace ~tagged_keys ~on_detect fc =
  {
    timing;
    fuel;
    layout;
    backend;
    dtb;
    trace;
    fc;
    tagged_keys;
    on_detect;
    armed = not (Injector.is_zero fc.injector);
    mem_faults = Injector.can_inject fc.injector Injector.Mem_word;
  }

let armed env = env.armed

type mode = Translating | Downgraded

type t = {
  asid : int;
  encoded : Codec.encoded;
  dir_steps : int;                (* reference DIR steps: the SRTF estimate,
                                     reported as pr_dir_steps *)
  interp0 : bool;
  inj : Injector.t;
  guard : Guard.t;
  retries : (int, int) Hashtbl.t; (* dir_addr -> recovery attempts *)
  watchdog : int Queue.t;         (* steps of recent recovery events *)
  mutable machine : Machine.t;
  mutable mode : mode;
  mutable translating : int;        (* open install's dir_addr, or -1 *)
  mutable doomed : bool;            (* armed translator fault *)
  mutable ck : Machine.checkpoint option;
  mutable ck_step : int;
  mutable outstanding : int list;   (* data addresses hit by Mem_word faults *)
  mutable downgrade_pending : bool;
  mutable finished : Machine.status option;
  mutable out_prefix : string;      (* output produced before downgrade *)
  mutable base_cycles : int;        (* cycles accumulated pre-downgrade *)
  mutable vbase : int;              (* global clock minus cycles, this slice *)
  mutable slices : int;
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable rolled_back : int;
}

let cycles t = t.base_cycles + (Machine.stats t.machine).Machine.cycles

let remaining t =
  match t.finished with
  | Some _ -> None
  | None ->
      Some (max 0 (t.dir_steps - (Machine.stats t.machine).Machine.interp_count))

(* Global virtual time mid-slice: the clock at slice start plus what the
   program has run since, so every event of a slice lands where it fired
   on the global clock. *)
let tell_v env t kind = Trace.record env.trace ~at_cycle:(t.vbase + cycles t) kind

let recovery_event env t ~step =
  Queue.push step t.watchdog;
  while
    (not (Queue.is_empty t.watchdog))
    && Queue.peek t.watchdog < step - env.fc.watchdog_window
  do
    ignore (Queue.pop t.watchdog)
  done;
  if Queue.length t.watchdog >= env.fc.watchdog_threshold then
    t.downgrade_pending <- true

let create env ~asid ~stream ~interp0 encoded =
  let { timing; fuel; layout; backend; dtb; fc; armed; _ } = env in
  let guards = fc.guards in
  let t_dtb = timing.Timing.t_dtb and t_guard = timing.Timing.t_guard in
  let buffer_base = layout.Layout.dtb_buffer_base + 1 in
  let buffer_words = Dtb.buffer_words dtb in
  let self = ref None in
  let t_of () = match !self with Some t -> t | None -> assert false in
  (* the guard checks' reader over the translating machine, built once
     it exists rather than on every hit *)
  let peek = ref (fun (_ : int) -> 0) in
  let apply_fault m (f : Injector.fault) =
    let t = t_of () in
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
          t.doomed <- true;
          true
      | Injector.Mem_word ->
          let base = layout.Layout.data_base in
          let dtop = Machine.reg m R.dtop in
          if dtop <= base then false
          else begin
            let addr = base + (f.Injector.f_r1 mod (dtop - base)) in
            Machine.poke m addr
              (Machine.peek m addr lxor (1 lsl (f.Injector.f_r2 mod 31)));
            t.outstanding <- addr :: t.outstanding;
            true
          end
    in
    if applied then begin
      t.injected <- t.injected + 1;
      tell_v env t
        (Trace.Fault_injected
           { asid = t.asid; fclass = Injector.class_name f.Injector.f_class })
    end
  in
  let start_translation m ~translator ~dir_addr ~dctx =
    let t = t_of () in
    tell_v env t (Trace.Translation { asid = t.asid; dir_addr });
    if guards then begin
      Guard.begin_install t.guard;
      Machine.add_cycles m t_guard (* flat checksum-seed cost at install *)
    end;
    t.translating <- dir_addr;
    Dtb.begin_translation dtb ~tag:dir_addr;
    Machine.set_reg m R.dpc dir_addr;
    Machine.set_reg m R.dctx dctx;
    Machine.set_pc m translator
  in
  let detect m ~translator ~dir_addr ~dctx ~fclass ~checked_words =
    let t = t_of () in
    Machine.add_cycles m (t_guard * max 1 checked_words);
    t.detected <- t.detected + 1;
    tell_v env t (Trace.Fault_detected { asid = t.asid; fclass });
    env.on_detect (t.vbase + cycles t) t.asid;
    let step = (Machine.stats m).Machine.interp_count in
    recovery_event env t ~step;
    let attempts =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.retries dir_addr)
    in
    Hashtbl.replace t.retries dir_addr attempts;
    if attempts > fc.retry_limit then t.downgrade_pending <- true;
    Machine.add_cycles m (fc.backoff_cycles * (1 lsl min (attempts - 1) 6));
    t.retried <- t.retried + 1;
    tell_v env t
      (Trace.Recovery_retry { asid = t.asid; dir_addr; attempt = attempts });
    ignore (Dtb.invalidate dtb ~tag:dir_addr);
    start_translation m ~translator ~dir_addr ~dctx
  in
  (* the hot path: with the injector silent and guards off (every
     zero-config run) a hit costs what the plain INTERP hook's does, and
     a miss allocates no pc *)
  let make_interp ~translator_entry =
    let translator = Machine.Long translator_entry in
    fun m ~dir_addr ~dctx ->
      if armed then begin
        match
          Injector.due (t_of ()).inj
            ~step:(Machine.stats m).Machine.interp_count
        with
        | [] -> ()
        | faults -> List.iter (apply_fault m) faults
      end;
      Machine.add_cycles m t_dtb;
      let buffer_addr = Dtb.lookup_addr dtb ~tag:dir_addr in
      if buffer_addr < 0 then start_translation m ~translator ~dir_addr ~dctx
      else if not guards then Machine.set_short_pc m buffer_addr
      else begin
        let t = t_of () in
        match
          Guard.check t.guard ~peek:!peek ~dir_addr ~start_addr:buffer_addr
        with
        | `Ok words ->
            Machine.add_cycles m (t_guard * words);
            Machine.set_short_pc m buffer_addr
        | `Mismatch | `Unguarded ->
            (* a different (or no) DIR address answered: the tag array
               lied — drop the aliased entry and retranslate *)
            Guard.drop t.guard ~start_addr:buffer_addr;
            detect m ~translator ~dir_addr ~dctx ~fclass:"dtb-tag"
              ~checked_words:1
        | `Corrupt words ->
            Guard.drop t.guard ~start_addr:buffer_addr;
            detect m ~translator ~dir_addr ~dctx ~fclass:"psder-word"
              ~checked_words:words
      end
  in
  let on_emit ~addr ~word =
    if guards then Guard.on_emit (t_of ()).guard ~addr ~word
  in
  let on_end_translation ~start_addr =
    let t = t_of () in
    let dir_addr = t.translating in
    assert (dir_addr >= 0);
    t.translating <- -1;
    if t.doomed then begin
      (* translator failure mid-install: the words are in the buffer and
         the current transfer still executes them, but the directory
         entry is lost — the next INTERP of this DIR address re-misses *)
      t.doomed <- false;
      ignore (Dtb.invalidate dtb ~tag:dir_addr);
      Guard.abandon t.guard;
      Guard.drop t.guard ~start_addr
    end
    else if guards then Guard.finish_install t.guard ~dir_addr ~start_addr
  in
  (* a stage-2 brownout admission runs as pure interpretation from the
     start and needs no hooks *)
  let machine, mode =
    if interp0 then (U.prepare_interp ~timing ?fuel ~layout ?backend encoded, Downgraded)
    else
      ( fst
          (U.prepare_dtb_custom ~timing ?fuel ~layout ?backend ~on_emit
             ~on_end_translation ~make_interp ~dtb encoded),
        Translating )
  in
  peek := Machine.peek machine;
  let t =
    {
      asid;
      encoded;
      dir_steps = U.dir_steps_memoized encoded.Codec.program;
      interp0;
      inj = Injector.create fc.injector ~asid:stream;
      guard = Guard.create ();
      retries = Hashtbl.create 16;
      watchdog = Queue.create ();
      machine;
      mode;
      translating = -1;
      doomed = false;
      ck = None;
      ck_step = 0;
      outstanding = [];
      downgrade_pending = false;
      finished = None;
      out_prefix = "";
      base_cycles = 0;
      vbase = 0;
      slices = 0;
      injected = 0;
      detected = 0;
      retried = 0;
      rolled_back = 0;
    }
  in
  self := Some t;
  t

let take_checkpoint env t =
  let ck = Machine.checkpoint t.machine in
  (* page traffic to stable (level-2) storage *)
  Machine.add_cycles t.machine (env.timing.Timing.t2 * Machine.checkpoint_pages ck);
  t.ck <- Some ck;
  t.ck_step <- (Machine.stats t.machine).Machine.interp_count

let scrub_and_rollback env t =
  if t.outstanding <> [] then begin
    let m = t.machine in
    let step = (Machine.stats m).Machine.interp_count in
    List.iter
      (fun _ ->
        t.detected <- t.detected + 1;
        tell_v env t
          (Trace.Fault_detected
             { asid = t.asid; fclass = Injector.class_name Injector.Mem_word });
        env.on_detect (t.vbase + cycles t) t.asid;
        recovery_event env t ~step)
      t.outstanding;
    let ck = match t.ck with Some ck -> ck | None -> assert false in
    Machine.restore m ck;
    Machine.add_cycles m (env.timing.Timing.t2 * Machine.checkpoint_pages ck);
    (* the restored memory predates some installed translations: drop
       this program's directory entries (and their guards) so every
       working-set entry re-translates against the rewound image *)
    if env.tagged_keys then ignore (Dtb.invalidate_asid env.dtb ~asid:t.asid)
    else Dtb.flush env.dtb;
    Guard.clear t.guard;
    t.outstanding <- [];
    t.finished <- None;
    t.rolled_back <- t.rolled_back + 1;
    tell_v env t
      (Trace.Rollback { asid = t.asid; pages = Machine.checkpoint_pages ck })
  end

let downgrade env t =
  let { timing; fuel; layout; backend; _ } = env in
  let m_old = t.machine in
  (* the downgraded interpreter keeps the driver's execution backend *)
  let m_new = U.prepare_interp ~timing ?fuel ~layout ?backend t.encoded in
  graft_interp ~layout m_old m_new;
  t.out_prefix <- t.out_prefix ^ Machine.output m_old;
  t.base_cycles <- t.base_cycles + (Machine.stats m_old).Machine.cycles;
  Machine.recycle m_old;
  t.machine <- m_new;
  t.mode <- Downgraded;
  t.downgrade_pending <- false;
  t.ck <- None;
  tell_v env t (Trace.Downgrade { asid = t.asid })

let slice env t ~clock ~quantum =
  let c0 = cycles t in
  t.vbase <- clock - c0;
  if env.mem_faults && t.mode = Translating && t.ck = None then
    take_checkpoint env t;
  let outcome =
    (* guards-off (or mid-install) corruption can make the machine
       execute garbage and die with a host exception rather than a guest
       trap; with faults armed that is just another trapped run, not a
       driver crash.  Without faults the exception propagates — a
       zero-config crash is a real bug. *)
    try
      match t.mode with
      | Translating -> Machine.run_dir_quantum t.machine ~quantum
      | Downgraded ->
          let budget =
            if quantum > max_int / interp_cycles_per_dir then max_int
            else quantum * interp_cycles_per_dir
          in
          Machine.run_for t.machine ~budget
    with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | e when env.armed ->
        let msg =
          match e with
          | Invalid_argument m | Failure m -> m
          | e -> Printexc.to_string e
        in
        Machine.Done (Machine.Trapped ("machine crash: " ^ msg))
  in
  t.slices <- t.slices + 1;
  (match outcome with
  | Machine.Done status -> t.finished <- Some status
  | Machine.Yielded -> ());
  (* A running machine only yields at INTERP boundaries, but one can stop
     mid-install (fuel, or fault corruption), leaving the shared
     directory's translation open.  Close it here so flush/invalidate
     (rollback below, or the next Flush_on_switch switch) find the DTB
     quiescent. *)
  if t.translating >= 0 then begin
    Dtb.abort_translation env.dtb;
    if env.fc.guards then Guard.abandon t.guard;
    t.translating <- -1;
    t.doomed <- false
  end;
  if t.mode = Translating then begin
    scrub_and_rollback env t;
    if t.finished = None then
      if t.downgrade_pending then downgrade env t
      else if env.mem_faults then
        match env.fc.checkpoint_every with
        | Some every
          when (Machine.stats t.machine).Machine.interp_count - t.ck_step
               >= every ->
            take_checkpoint env t
        | _ -> ()
  end;
  cycles t - c0

let end_state env t =
  (* a fault-crashed machine can have garbage stack registers; a
     fingerprint that cannot even be computed is a mismatch, not a
     driver crash *)
  try
    ( t.out_prefix ^ Machine.output t.machine,
      arch_fingerprint ~layout:env.layout t.machine,
      true )
  with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | _ when env.armed -> ("", 0, false)
