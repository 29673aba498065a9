module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module Cache = Uhm_machine.Cache
module Asm = Uhm_machine.Asm
module SF = Uhm_machine.Short_format
module H = Uhm_machine.Host_isa
module R = Uhm_machine.Host_isa.Regs
module Isa = Uhm_dir.Isa
module Program = Uhm_dir.Program
module Stats = Uhm_dir.Static_stats
module Codec = Uhm_encoding.Codec
module Kind = Uhm_encoding.Kind
module Layout = Uhm_psder.Layout
module Runtime = Uhm_psder.Runtime
module Interp_gen = Uhm_psder.Interp_gen
module Translate_gen = Uhm_psder.Translate_gen
module Static_gen = Uhm_psder.Static_gen
module Der_gen = Uhm_psder.Der_gen

type der_residence =
  | Der_level1
  | Der_level2
  | Der_level2_cached of int

type strategy =
  | Interp
  | Cached of int
  | Dtb_strategy of Dtb.config
  | Dtb_blocks of Dtb.config * int   (* basic-block translation, max run *)
  | Dtb_two_level of Dtb.config * int
      (* a second-level decoded-instruction store of the given capacity
         (entries) behind the DTB: multi-level translation, paper section 4 *)
  | Psder_static
  | Der of der_residence

let strategy_name = function
  | Interp -> "interp"
  | Cached bytes -> Printf.sprintf "interp+icache(%dB)" bytes
  | Dtb_strategy cfg ->
      Printf.sprintf "dtb(%dx%dx%dw)" cfg.Dtb.sets cfg.Dtb.assoc
        cfg.Dtb.unit_words
  | Dtb_blocks (cfg, limit) ->
      Printf.sprintf "dtb-blocks(%dx%dx%dw,run<=%d)" cfg.Dtb.sets cfg.Dtb.assoc
        cfg.Dtb.unit_words limit
  | Dtb_two_level (cfg, l2) ->
      Printf.sprintf "dtb2(%dx%dx%dw,l2=%d)" cfg.Dtb.sets cfg.Dtb.assoc
        cfg.Dtb.unit_words l2
  | Psder_static -> "psder-static"
  | Der Der_level1 -> "der(level1)"
  | Der Der_level2 -> "der(level2)"
  | Der (Der_level2_cached bytes) -> Printf.sprintf "der(icache %dB)" bytes

type result = {
  strategy : strategy;
  status : Machine.status;
  output : string;
  cycles : int;
  machine_stats : Machine.stats;
  dir_steps : int;
  dtb_hit_ratio : float option;
  dtb_misses : int option;
  dtb_evictions : int option;
  dtb_overflow_allocations : int option;
  dtb_emitted_words : int option;
  dtb_l2_hit_ratio : float option;
  icache_hit_ratio : float option;
  static_size_bits : int;
  support_size_bits : int;
}

let cycles_per_dir_instruction r =
  if r.dir_steps = 0 then 0.
  else float_of_int r.cycles /. float_of_int r.dir_steps

let default_fuel = 2_000_000_000

(* Host-word size convention for the level-1 support accounting (see
   DESIGN.md): a memory word or long instruction is 32 bits, a short word
   16 bits. *)
let host_word_bits = 32

(* The region list is a pure function of (timing, layout); handing
   [Machine.create] the same list object run after run lets its derived-
   table memos hit (both inputs are immutable and callers reuse them). *)
let regions_memo :
    ((Timing.t * Layout.t) * Machine.region list) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let regions_memo_max = 16

let regions_memoized timing layout =
  let cache = Domain.DLS.get regions_memo in
  match
    List.find_opt (fun ((t', l'), _) -> t' == timing && l' == layout) !cache
  with
  | Some (_, v) -> v
  | None ->
      let v = Layout.regions timing layout in
      let entries = !cache in
      let entries =
        if List.length entries >= regions_memo_max then
          List.filteri (fun i _ -> i < regions_memo_max - 1) entries
        else entries
      in
      cache := ((timing, layout), v) :: entries;
      v

(* Machine with registers and the main frame initialised (the paper's
   link-editing/loading step; charged no cycles). *)
let setup_machine ~timing ~fuel ~layout ~backend ~(program : Asm.program)
    (p : Program.t) =
  let m =
    Machine.create ~timing ~fuel ~backend ~program
      ~mem_words:layout.Layout.mem_words
      ~regions:(regions_memoized timing layout) ()
  in
  let data_base = layout.Layout.data_base in
  let main = p.Program.contours.(0) in
  Machine.set_reg m R.sp layout.Layout.op_stack_base;
  Machine.set_reg m R.rsp layout.Layout.ret_stack_base;
  Machine.set_reg m R.fp data_base;
  Machine.set_reg m R.dtop
    (data_base + Isa.frame_header_size + main.Program.n_locals);
  Machine.set_reg m R.ctx 0;
  Machine.set_reg m R.dctx Stats.start_context;
  Machine.poke m data_base data_base;
  Machine.poke m (data_base + 1) 0;
  Machine.poke m (data_base + 2) 0;
  Machine.poke m (data_base + 3) 0;
  m

let dir_steps_reference p =
  (Uhm_dir.Interp.run p).Uhm_dir.Interp.steps

(* Memo for the reference pre-pass: every [run]/[run_encoded] reports
   [dir_steps], which re-executes the whole reference interpreter — once
   per strategy in a sweep, on the same program.  Keyed by physical
   identity (programs are immutable once built and sweeps reuse the same
   value across strategies); bounded; mutex-protected so parallel sweep
   workers share it.  The interpreter run happens outside the lock —
   two workers may race to fill the same entry, computing the same value
   twice, which is wasted work but never wrong. *)
let dir_steps_mutex = Mutex.create ()
let dir_steps_memo : (Program.t * int) list ref = ref []
let dir_steps_memo_max = 128

let dir_steps_memoized p =
  let cached =
    Mutex.lock dir_steps_mutex;
    let r = List.find_opt (fun (q, _) -> q == p) !dir_steps_memo in
    Mutex.unlock dir_steps_mutex;
    r
  in
  match cached with
  | Some (_, steps) -> steps
  | None ->
      let steps = dir_steps_reference p in
      Mutex.lock dir_steps_mutex;
      let rest = List.filter (fun (q, _) -> q != p) !dir_steps_memo in
      let rest =
        if List.length rest >= dir_steps_memo_max then
          List.filteri (fun i _ -> i < dir_steps_memo_max - 1) rest
        else rest
      in
      dir_steps_memo := (p, steps) :: rest;
      Mutex.unlock dir_steps_mutex;
      steps

let dir_steps_of = dir_steps_memoized

(* -- Build-product memos ------------------------------------------------------
   Everything a [run] assembles before the first simulated cycle — the
   DIR encoding, the generated interpreter/translator programs, the DER
   expansion, the PSDER runtime and static image — is a pure function of
   immutable inputs, yet was rebuilt from scratch on every run.  Sweep
   grids and the bench harness execute the same (program, strategy) cell
   hundreds of times, so on short workloads the rebuild dominated the
   run.  Each product is memoized per domain (workers re-derive their
   own copies, so nothing is ever shared across domains), keyed on the
   physical identity of its inputs: programs, encodings and layouts are
   immutable once built, and callers naturally pass the same values run
   after run.  Sharing the products across runs on a domain is safe
   because machines only read them — the host code array, table images
   and static words are poked into per-machine memory, never written in
   place.  Bounded: a full table drops its oldest entry. *)

let build_memo_max = 64

let build_memoized key ~eq k compute =
  let cache = Domain.DLS.get key in
  match List.find_opt (fun (k', _) -> eq k k') !cache with
  | Some (_, v) -> v
  | None ->
      let v = compute () in
      let entries = !cache in
      let entries =
        if List.length entries >= build_memo_max then
          List.filteri (fun i _ -> i < build_memo_max - 1) entries
        else entries
      in
      cache := (k, v) :: entries;
      v

let encode_memo : ((Kind.t * Program.t) * Codec.encoded) list ref Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> ref [])

let encode_memoized kind p =
  build_memoized encode_memo
    ~eq:(fun (k1, p1) (k2, p2) -> k1 = k2 && p1 == p2)
    (kind, p)
    (fun () -> Codec.encode kind p)

let interp_gen_memo :
    ((bool * bool * Layout.t * Codec.encoded) * Interp_gen.t) list ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let interp_gen_memoized ~compound ~assist ~layout ~encoded =
  build_memoized interp_gen_memo
    ~eq:(fun (c1, a1, l1, e1) (c2, a2, l2, e2) ->
      c1 = c2 && a1 = a2 && l1 == l2 && e1 == e2)
    (compound, assist, layout, encoded)
    (fun () -> Interp_gen.build ~compound ~assist ~layout ~encoded)

let translate_gen_memo :
    ((bool * int option * bool * Layout.t * Codec.encoded) * Translate_gen.t)
    list
    ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let translate_gen_memoized ~compound ~block ~assist ~layout ~encoded =
  build_memoized translate_gen_memo
    ~eq:(fun (c1, b1, a1, l1, e1) (c2, b2, a2, l2, e2) ->
      c1 = c2 && b1 = b2 && a1 = a2 && l1 == l2 && e1 == e2)
    (compound, block, assist, layout, encoded)
    (fun () -> Translate_gen.build ~compound ~block ~assist ~layout ~encoded)

let der_gen_memo : (Program.t * Der_gen.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let der_gen_memoized p =
  build_memoized der_gen_memo ~eq:( == ) p (fun () -> Der_gen.build p)

let psder_memo :
    ((bool * Layout.t * Program.t) * (Asm.program * Static_gen.t)) list ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let psder_memoized ~compound ~layout p =
  build_memoized psder_memo
    ~eq:(fun (c1, l1, p1) (c2, l2, p2) -> c1 = c2 && l1 == l2 && p1 == p2)
    (compound, layout, p)
    (fun () ->
      let b = Asm.create () in
      let rt = Runtime.build ~compound b ~layout in
      let program = Asm.finish b in
      (program, Static_gen.build ~layout ~rt p))

let finish ~runner ~strategy ~p ~static_size_bits ~support_size_bits ?dtb
    ?icache ?emitted_words ?l2_cache m =
  let status = runner m in
  let stats = Machine.stats m in
  let result =
    {
      strategy;
      status;
      output = Machine.output m;
      cycles = stats.Machine.cycles;
      machine_stats = stats;
      dir_steps = dir_steps_of p;
      dtb_hit_ratio = Option.map Dtb.hit_ratio dtb;
      dtb_misses = Option.map Dtb.misses dtb;
      dtb_evictions = Option.map Dtb.evictions dtb;
      dtb_overflow_allocations = Option.map Dtb.overflow_allocations dtb;
      dtb_emitted_words = Option.map (fun r -> !r) emitted_words;
      dtb_l2_hit_ratio = Option.map Cache.hit_ratio l2_cache;
      icache_hit_ratio = Option.map Cache.hit_ratio icache;
      static_size_bits;
      support_size_bits;
    }
  in
  (* the machine never escapes the run_* drivers: everything the result
     needs has been extracted, so its memory can go back to the pool *)
  Machine.recycle m;
  result

(* The hardware decode-assist unit (paper section 8's "powerful hardware
   aids to the decoding process"): one DecodeAssist instruction decodes a
   whole DIR instruction.  Cost: the instruction cycle, two cycles of
   decode-unit latency, plus the normal IFU charges for the stream units
   read. *)
let assist_unit_cycles = 2

let assist_hook (encoded : Codec.encoded) m =
  let addr = Machine.reg m R.dpc in
  let raw =
    Codec.decode_at encoded ~contour:(Machine.reg m R.ctx)
      ~digram_ctx:(Machine.reg m R.dctx) ~addr
  in
  Machine.set_reg m 8 (Isa.opcode_to_enum raw.Codec.op);
  Machine.set_reg m 9 raw.Codec.ra;
  Machine.set_reg m 10 raw.Codec.rb;
  Machine.set_reg m 11 raw.Codec.rc;
  Machine.set_reg m R.dpc raw.Codec.next_addr;
  Machine.charge_dir_span m ~first_bit:addr
    ~last_bit:(max addr (raw.Codec.next_addr - 1));
  Machine.add_cycles m assist_unit_cycles

(* IU2 features are never reached in interpreter-only configurations; the
   hooks exist only so the decode-assist entry is available. *)
let interp_hooks ~assist encoded =
  {
    Machine.h_interp = (fun _ ~dir_addr:_ ~dctx:_ -> ());
    h_emit_short = (fun _ _ -> ());
    h_end_trans = (fun _ -> ());
    h_decode_assist =
      (if assist then assist_hook encoded
       else fun _ -> ());
  }

let icache_for_bytes bytes =
  (* DIR units are 16 bits, so an icache of [bytes] holds bytes/2 units *)
  Cache.create ~assoc:4 ~block_words:4 ~capacity_words:(bytes / 2) ()

let run_interpreted ~timing ~fuel ~layout ~backend ~runner ~strategy ~assist
    ~compound (encoded : Codec.encoded) =
  let p = encoded.Codec.program in
  let gen = interp_gen_memoized ~compound ~assist ~layout ~encoded in
  let m =
    setup_machine ~timing ~fuel ~layout ~backend ~program:gen.Interp_gen.program
      p
  in
  Array.iteri
    (fun i w -> Machine.poke m (layout.Layout.table_base + i) w)
    gen.Interp_gen.table_image;
  let icache =
    match strategy with
    | Cached bytes -> Some (icache_for_bytes bytes)
    | _ -> None
  in
  Machine.set_dir_stream m ~bits:encoded.Codec.bits
    ~mode:
      (match icache with
      | Some c -> Machine.Dir_cached c
      | None -> Machine.Dir_uncached);
  Machine.set_hooks m (interp_hooks ~assist encoded);
  Machine.set_reg m R.dpc encoded.Codec.entry_addr;
  Machine.set_pc m (Machine.Long gen.Interp_gen.entry);
  let support =
    host_word_bits
    * (Array.length gen.Interp_gen.program.Asm.code
      + Array.length gen.Interp_gen.table_image)
  in
  finish ~runner ~strategy ~p ~static_size_bits:encoded.Codec.size_bits
    ~support_size_bits:support ?icache m

(* The plain INTERP hook (paper Figure 4): charge the DTB access, transfer
   on a hit; on a miss the replacement logic installs the tag and traps to
   the dynamic translation routine. *)
let plain_dtb_interp ~t_dtb ~dtb ~translator_entry =
  let translator = Machine.Long translator_entry in
  fun m ~dir_addr ~dctx ->
    Machine.add_cycles m t_dtb;
    let buffer_addr = Dtb.lookup_addr dtb ~tag:dir_addr in
    if buffer_addr >= 0 then Machine.set_short_pc m buffer_addr
    else begin
      Dtb.begin_translation dtb ~tag:dir_addr;
      Machine.set_reg m R.dpc dir_addr;
      Machine.set_reg m R.dctx dctx;
      Machine.set_pc m translator
    end

(* -- The DTB machine ----------------------------------------------------------
   Every DTB configuration — the private runs of [run_dtb] and the shared,
   guarded machines of [prepare_dtb_custom] — runs on a machine built
   here: the generated translator, its tables, the DIR stream, the
   buffer's short-compile window, the bootstrap INTERP and one hook set.
   EmitShort appends the word to the open translation (poking the chain
   word too when an overflow block is linked in); EndTrans transfers to
   the finished translation.  [on_emit] sees every buffer word written,
   chain words included, and [on_end_translation] every completed
   translation's start address.  Only the INTERP hook, built by
   [make_interp] from the generated code, varies between
   configurations. *)
let dtb_machine ~timing ~fuel ~layout ~backend ~compound ~block ~assist
    ~emitted_words ~on_emit ~on_end_translation ~make_interp ~dtb
    (encoded : Codec.encoded) =
  let gen = translate_gen_memoized ~compound ~block ~assist ~layout ~encoded in
  let m =
    setup_machine ~timing ~fuel ~layout ~backend
      ~program:gen.Translate_gen.program encoded.Codec.program
  in
  Array.iteri
    (fun i w -> Machine.poke m (layout.Layout.table_base + i) w)
    gen.Translate_gen.table_image;
  Machine.set_dir_stream m ~bits:encoded.Codec.bits ~mode:Machine.Dir_uncached;
  let bootstrap_addr = layout.Layout.dtb_buffer_base in
  if 1 + Dtb.buffer_words dtb > layout.Layout.dtb_buffer_size then
    invalid_arg "Uhm: DTB buffer does not fit its memory region";
  (* threaded machines may compile any word of the buffer region, the
     bootstrap INTERP included (a no-op on decode machines); a closure
     lives until its word is rewritten, so the DTB needs no reference to
     the machine *)
  Machine.enable_short_compile m ~base:layout.Layout.dtb_buffer_base
    ~size:layout.Layout.dtb_buffer_size;
  Machine.set_hooks m
    {
      Machine.h_interp = make_interp gen;
      h_emit_short =
        (fun m word ->
          incr emitted_words;
          let addr = Dtb.emit dtb word in
          Machine.poke m addr word;
          Machine.charge_mem m addr;
          on_emit ~addr ~word;
          let slot = Dtb.chain_slot dtb in
          if slot >= 0 then begin
            let goto = SF.pack SF.Goto addr in
            Machine.poke m slot goto;
            Machine.charge_mem m slot;
            on_emit ~addr:slot ~word:goto
          end);
      h_end_trans =
        (fun m ->
          let start_addr = Dtb.end_translation dtb in
          on_end_translation ~start_addr;
          Machine.set_short_pc m start_addr);
      h_decode_assist =
        (if assist then assist_hook encoded else fun _ -> ());
    };
  Machine.poke m bootstrap_addr
    (SF.pack ~ctx:Stats.start_context SF.Interp_imm encoded.Codec.entry_addr);
  Machine.set_pc m (Machine.Short bootstrap_addr);
  (m, gen)

let no_emit_tap ~addr:_ ~word:_ = ()
let no_end_tap ~start_addr:_ = ()

let run_dtb ~timing ~fuel ~layout ~backend ~runner ~strategy ~assist ~compound
    ~block ?l2 cfg (encoded : Codec.encoded) =
  (* second-level decoded-instruction store (multi-level translation,
     paper section 4): presence is a fully-associative LRU of [l2] entries;
     the decoded fields are the "hardware" payload *)
  let l2_cache =
    Option.map
      (fun entries ->
        (Cache.create ~assoc:0 ~block_words:1 ~capacity_words:entries (),
         Hashtbl.create 256))
      l2
  in
  let dtb = Dtb.create cfg ~buffer_base:(layout.Layout.dtb_buffer_base + 1) in
  let t_dtb = timing.Timing.t_dtb in
  let make_interp gen =
    let translator_entry = gen.Translate_gen.translator_entry in
    match l2_cache with
    | None -> plain_dtb_interp ~t_dtb ~dtb ~translator_entry
    | Some (cache, payload) ->
        fun m ~dir_addr ~dctx ->
          Machine.add_cycles m t_dtb;
          let buffer_addr = Dtb.lookup_addr dtb ~tag:dir_addr in
          if buffer_addr >= 0 then Machine.set_short_pc m buffer_addr
          else begin
            (* the replacement logic installs the tag and traps to the
               dynamic translation routine (paper Figure 4) *)
            Dtb.begin_translation dtb ~tag:dir_addr;
            Machine.set_reg m R.dpc dir_addr;
            Machine.set_reg m R.dctx dctx;
            Machine.add_cycles m t_dtb;
            match Cache.access cache dir_addr with
            | `Hit when Hashtbl.mem payload dir_addr ->
                (* decode skipped: the stored fields are presented to
                   the translator's dispatch directly *)
                let raw : Codec.raw_instr = Hashtbl.find payload dir_addr in
                Machine.set_reg m 8 (Isa.opcode_to_enum raw.Codec.op);
                Machine.set_reg m 9 raw.Codec.ra;
                Machine.set_reg m 10 raw.Codec.rb;
                Machine.set_reg m 11 raw.Codec.rc;
                Machine.set_reg m R.dpc raw.Codec.next_addr;
                Machine.set_pc m
                  (Machine.Long gen.Translate_gen.dispatch_entry)
            | `Hit | `Miss ->
                (* record this decode for later re-translations *)
                Hashtbl.replace payload dir_addr
                  (Codec.decode_at encoded
                     ~contour:(Machine.reg m R.ctx) ~digram_ctx:dctx
                     ~addr:dir_addr);
                Machine.set_pc m (Machine.Long translator_entry)
          end
  in
  let emitted_words = ref 0 in
  let m, gen =
    dtb_machine ~timing ~fuel ~layout ~backend ~compound ~block ~assist
      ~emitted_words ~on_emit:no_emit_tap ~on_end_translation:no_end_tap
      ~make_interp ~dtb encoded
  in
  let support =
    host_word_bits
    * (Array.length gen.Translate_gen.program.Asm.code
      + Array.length gen.Translate_gen.table_image)
    + (SF.bits_per_word * Dtb.buffer_words dtb)
  in
  finish ~runner ~strategy ~p:encoded.Codec.program
    ~static_size_bits:encoded.Codec.size_bits ~support_size_bits:support ~dtb
    ~emitted_words ?l2_cache:(Option.map fst l2_cache) m

(* A machine time-slicing over a *shared* DTB: everything [run_dtb] sets up
   except the run itself and the DTB, which the multiprogramming layer owns
   (created with [Dtb.create_shared] at [layout.dtb_buffer_base + 1], the
   word after the bootstrap INTERP).  Every program gets its own machine —
   its own memory image at the same layout — so a shared entry's buffer
   address is valid in every address space; what the programs contend for
   is the *directory* (tags, capacity, overflow blocks).  A program only
   ever executes translations it installed itself: on a preserved entry
   installed by another ASID the tags cannot match, so the lookup misses
   and retranslates into its own memory.

   [prepare_dtb_custom] is the general form: the caller supplies the
   INTERP hook (given the translator entry point) and may tap every
   buffer-word write and every translation completion — the resilience
   layer hangs its per-entry guards off those taps.  With the default
   no-op taps and [make_interp = plain_dtb_interp ...] the machine is
   cycle-identical to [prepare_dtb_shared]'s. *)
let prepare_dtb_custom ?(timing = Timing.paper) ?(fuel = default_fuel)
    ?(layout = Layout.default) ?(backend = `Decode) ?(on_emit = no_emit_tap)
    ?(on_end_translation = no_end_tap) ~make_interp ~dtb
    (encoded : Codec.encoded) =
  let m, gen =
    dtb_machine ~timing ~fuel ~layout ~backend ~compound:false ~block:None
      ~assist:false ~emitted_words:(ref 0) ~on_emit ~on_end_translation
      ~make_interp:(fun gen ->
        make_interp ~translator_entry:gen.Translate_gen.translator_entry)
      ~dtb encoded
  in
  (m, gen.Translate_gen.translator_entry)

let prepare_dtb_shared ?timing ?fuel ?layout ?backend ~dtb
    (encoded : Codec.encoded) =
  let t_dtb =
    (Option.value ~default:Timing.paper timing).Timing.t_dtb
  in
  let m, _ =
    prepare_dtb_custom ?timing ?fuel ?layout ?backend
      ~make_interp:(fun ~translator_entry ->
        plain_dtb_interp ~t_dtb ~dtb ~translator_entry)
      ~dtb encoded
  in
  m

(* A pure-interpretation machine over the same encoded program: the
   watchdog's downgrade target.  Set up exactly as [run_interpreted]
   (no icache, no assist, no compound datapath) but returned suspended
   so the caller can graft in the mid-flight architectural state before
   slicing it with [Machine.run_for]. *)
let prepare_interp ?(timing = Timing.paper) ?(fuel = default_fuel)
    ?(layout = Layout.default) ?(backend = `Decode)
    (encoded : Codec.encoded) =
  let p = encoded.Codec.program in
  let gen = interp_gen_memoized ~compound:false ~assist:false ~layout ~encoded in
  let m =
    setup_machine ~timing ~fuel ~layout ~backend ~program:gen.Interp_gen.program
      p
  in
  Array.iteri
    (fun i w -> Machine.poke m (layout.Layout.table_base + i) w)
    gen.Interp_gen.table_image;
  Machine.set_dir_stream m ~bits:encoded.Codec.bits ~mode:Machine.Dir_uncached;
  Machine.set_hooks m (interp_hooks ~assist:false encoded);
  Machine.set_reg m R.dpc encoded.Codec.entry_addr;
  Machine.set_pc m (Machine.Long gen.Interp_gen.entry);
  m

let run_psder_static ~timing ~fuel ~layout ~backend ~runner ~strategy ~compound
    (p : Program.t) =
  let program, static = psder_memoized ~compound ~layout p in
  let m = setup_machine ~timing ~fuel ~layout ~backend ~program p in
  Array.iteri
    (fun i w -> Machine.poke m (layout.Layout.psder_static_base + i) w)
    static.Static_gen.words;
  (* the static image is immutable for the run: closures never retire *)
  (match backend with
  | `Decode -> ()
  | `Threaded ->
      Machine.enable_short_compile m ~base:layout.Layout.psder_static_base
        ~size:layout.Layout.psder_static_size);
  Machine.set_pc m (Machine.Short static.Static_gen.entry_addr);
  finish ~runner ~strategy ~p
    ~static_size_bits:(Static_gen.size_bits static)
    ~support_size_bits:(host_word_bits * Array.length program.Asm.code)
    m

let run_der ~timing ~fuel ~layout ~backend ~runner ~strategy residence
    (p : Program.t) =
  let der = der_gen_memoized p in
  let m =
    setup_machine ~timing ~fuel ~layout ~backend ~program:der.Der_gen.program p
  in
  let icache =
    match residence with
    | Der_level1 -> None
    | Der_level2 ->
        Machine.set_code_fetch_hook m (fun _ -> timing.Timing.t2);
        None
    | Der_level2_cached bytes ->
        (* 32-bit instructions: bytes/4 cache words *)
        let c = Cache.create ~assoc:4 ~block_words:4 ~capacity_words:(bytes / 4) () in
        Machine.set_code_fetch_hook m (fun addr ->
            match Cache.access c addr with
            | `Hit -> timing.Timing.t_dtb
            | `Miss -> timing.Timing.t2);
        Some c
  in
  Machine.set_pc m (Machine.Long der.Der_gen.entry);
  finish ~runner ~strategy ~p
    ~static_size_bits:(H.bits_per_instr * der.Der_gen.code_instructions)
    ~support_size_bits:0 ?icache m

let run_encoded ?(timing = Timing.paper) ?(fuel = default_fuel)
    ?(layout = Layout.default) ?(backend = `Decode) ?(decode_assist = false)
    ?(compound_datapath = false) ?(runner = Machine.run) ~strategy
    (encoded : Codec.encoded) =
  match strategy with
  | Interp | Cached _ ->
      run_interpreted ~timing ~fuel ~layout ~backend ~runner ~strategy
        ~assist:decode_assist ~compound:compound_datapath encoded
  | Dtb_strategy cfg ->
      run_dtb ~timing ~fuel ~layout ~backend ~runner ~strategy
        ~assist:decode_assist ~compound:compound_datapath ~block:None cfg
        encoded
  | Dtb_blocks (cfg, limit) ->
      run_dtb ~timing ~fuel ~layout ~backend ~runner ~strategy
        ~assist:decode_assist ~compound:compound_datapath ~block:(Some limit)
        cfg encoded
  | Dtb_two_level (cfg, l2) ->
      run_dtb ~timing ~fuel ~layout ~backend ~runner ~strategy
        ~assist:decode_assist ~compound:compound_datapath ~block:None ~l2 cfg
        encoded
  | Psder_static | Der _ ->
      invalid_arg "Uhm.run_encoded: strategy does not take an encoding"

let run ?(timing = Timing.paper) ?(fuel = default_fuel)
    ?(layout = Layout.default) ?(backend = `Decode) ?(decode_assist = false)
    ?(compound_datapath = false) ?(runner = Machine.run) ~strategy ~kind
    (p : Program.t) =
  match strategy with
  | Interp | Cached _ | Dtb_strategy _ | Dtb_blocks _ | Dtb_two_level _ ->
      run_encoded ~timing ~fuel ~layout ~backend ~decode_assist
        ~compound_datapath ~runner ~strategy (encode_memoized kind p)
  | Psder_static ->
      run_psder_static ~timing ~fuel ~layout ~backend ~runner ~strategy
        ~compound:compound_datapath p
  | Der residence ->
      run_der ~timing ~fuel ~layout ~backend ~runner ~strategy residence p
