(* Differential tests for the threaded execution backend: decode and
   threaded must be observably identical — cycles, every statistics
   field, traps, output, DTB counters, traces — on the golden suites,
   random programs across strategies, sliced execution with random
   invalidation points, guest code that rewrites its own short words,
   one program object run under two timings, all three shared-DTB
   policies, and the fault driver (zero-fault and fault-injected, the
   stale-closure regression: a guard-detected corruption must drop the
   compiled closure with the DTB entry). *)

module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Machine = Uhm_machine.Machine
module Layout = Uhm_psder.Layout
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Injector = Uhm_fault.Injector
module Resilient = Uhm_fault.Resilient
module Asm = Uhm_machine.Asm
module H = Uhm_machine.Host_isa
module R = Uhm_machine.Host_isa.Regs
module SF = Uhm_machine.Short_format
module Timing = Uhm_machine.Timing

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let compile name = Suite.compile (Suite.find name)
let encode name = (name, Codec.encode Kind.Huffman (compile name))

let status_str = function
  | Machine.Running -> "running"
  | Machine.Halted -> "halted"
  | Machine.Trapped m -> "trapped: " ^ m
  | Machine.Out_of_fuel -> "out of fuel"

(* Field-by-field equality of the full statistics record: a divergence
   message that names the field beats a bare [false]. *)
let check_stats label (a : Machine.stats) (b : Machine.stats) =
  let f n = check_int (label ^ ": " ^ n) in
  f "cycles" a.Machine.cycles b.Machine.cycles;
  f "host_instrs" a.Machine.host_instrs b.Machine.host_instrs;
  f "short_instrs" a.Machine.short_instrs b.Machine.short_instrs;
  f "dir_units_fetched" a.Machine.dir_units_fetched b.Machine.dir_units_fetched;
  f "dir_fetch_cycles" a.Machine.dir_fetch_cycles b.Machine.dir_fetch_cycles;
  f "short_fetch_cycles" a.Machine.short_fetch_cycles
    b.Machine.short_fetch_cycles;
  f "code_fetch_cycles" a.Machine.code_fetch_cycles b.Machine.code_fetch_cycles;
  f "stack_cycles" a.Machine.stack_cycles b.Machine.stack_cycles;
  f "interp_count" a.Machine.interp_count b.Machine.interp_count;
  Array.iteri
    (fun i c -> f (Printf.sprintf "cat_cycles.(%d)" i) c b.Machine.cat_cycles.(i))
    a.Machine.cat_cycles

let check_result label (a : U.result) (b : U.result) =
  Alcotest.(check string)
    (label ^ ": status") (status_str a.U.status) (status_str b.U.status);
  Alcotest.(check string) (label ^ ": output") a.U.output b.U.output;
  check_int (label ^ ": cycles") a.U.cycles b.U.cycles;
  check_int (label ^ ": dir_steps") a.U.dir_steps b.U.dir_steps;
  check_stats label a.U.machine_stats b.U.machine_stats;
  check_bool (label ^ ": dtb counters") true
    (a.U.dtb_hit_ratio = b.U.dtb_hit_ratio
    && a.U.dtb_misses = b.U.dtb_misses
    && a.U.dtb_evictions = b.U.dtb_evictions
    && a.U.dtb_overflow_allocations = b.U.dtb_overflow_allocations
    && a.U.dtb_emitted_words = b.U.dtb_emitted_words
    && a.U.dtb_l2_hit_ratio = b.U.dtb_l2_hit_ratio
    && a.U.icache_hit_ratio = b.U.icache_hit_ratio);
  check_int (label ^ ": static_size_bits") a.U.static_size_bits
    b.U.static_size_bits;
  check_int (label ^ ": support_size_bits") a.U.support_size_bits
    b.U.support_size_bits

let strategies =
  [
    ("interp", U.Interp);
    ("cached", U.Cached 4096);
    ("dtb", U.Dtb_strategy Dtb.paper_config);
    (* block translation needs roomier units (see test_core's block_cfg):
       the paper geometry's overflow area drowns on straight-line code *)
    ( "dtb_blocks",
      U.Dtb_blocks
        ({ Dtb.sets = 32; assoc = 4; unit_words = 16; overflow_blocks = 256 }, 8)
    );
    ("dtb_two_level", U.Dtb_two_level (Dtb.paper_config, 256));
    ("psder_static", U.Psder_static);
    ("der", U.Der U.Der_level1);
    ("der_l2", U.Der U.Der_level2);
    ("der_l2_cached", U.Der (U.Der_level2_cached 4096));
  ]

(* -- Golden suites under both backends --------------------------------------- *)

let test_golden_backends () =
  List.iter
    (fun workload ->
      let p = compile workload in
      List.iter
        (fun (sname, strategy) ->
          let d = U.run ~backend:`Decode ~strategy ~kind:Kind.Huffman p in
          let t = U.run ~backend:`Threaded ~strategy ~kind:Kind.Huffman p in
          check_result (workload ^ "/" ^ sname) d t)
        strategies)
    [ "fact_iter"; "fib_rec"; "flat_straightline" ]

(* -- Random programs x strategies (QCheck) ------------------------------------ *)

let qcheck_strategies =
  [
    (U.Interp, Kind.Digram);
    (U.Cached 2048, Kind.Contextual);
    (U.Dtb_strategy Dtb.paper_config, Kind.Huffman);
    (U.Psder_static, Kind.Packed);
    (U.Der U.Der_level1, Kind.Packed);
  ]

(* Same gate as test_core's differential: only programs whose HLR
   reference halts cleanly are machine-compared (a pathological generated
   program — e.g. unbounded recursion — walks the reference interpreter
   off the rails identically under both backends, but noisily). *)
let halts_cleanly ast =
  let r = Uhm_hlr.Env_interp.run ~fuel:150_000 (Uhm_hlr.Check.check_exn ast) in
  r.Uhm_hlr.Env_interp.status = Uhm_hlr.Env_interp.Halted

let prop_backend_differential =
  QCheck.Test.make ~count:25 ~name:"threaded backend == decode (random programs)"
    Gen_program.valid_program (fun ast ->
      (not (halts_cleanly ast))
      ||
      let p = Uhm_compiler.Pipeline.compile ~fuse:true ast in
      List.iter
        (fun (strategy, kind) ->
          let d = U.run ~backend:`Decode ~strategy ~kind p in
          let t = U.run ~backend:`Threaded ~strategy ~kind p in
          check_result (U.strategy_name strategy) d t)
        qcheck_strategies;
      true)

(* -- Sliced execution with random invalidation points ------------------------- *)

(* Two machines over private shared-style DTBs, driven in lockstep by
   identical random slice/invalidation schedules: after each quantum the
   same DTB surgery (flush or targeted invalidation) is applied to both.
   On the threaded machine every drop must retire the compiled closures;
   a stale closure shows up as a cycle or state divergence. *)
let prop_backend_sliced_invalidation =
  QCheck.Test.make ~count:20
    ~name:"threaded == decode under sliced runs with random invalidation"
    QCheck.(pair Gen_program.valid_program small_int)
    (fun (ast, seed) ->
      (not (halts_cleanly ast))
      ||
      let p = Uhm_compiler.Pipeline.compile ~fuse:true ast in
      let encoded = Codec.encode Kind.Huffman p in
      let layout = Layout.default in
      let make backend =
        let dtb =
          Dtb.create_shared ~policy:Dtb.Tagged ~programs:1 Dtb.paper_config
            ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
        in
        let m = U.prepare_dtb_shared ~layout ~backend ~dtb encoded in
        (m, dtb)
      in
      let md, dd = make `Decode in
      let mt, dt = make `Threaded in
      let rng = Random.State.make [| seed; 0x5eed |] in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 10_000 do
        incr steps;
        let quantum = 1 + Random.State.int rng 5 in
        let od = Machine.run_dir_quantum md ~quantum in
        let ot = Machine.run_dir_quantum mt ~quantum in
        check_bool "slice outcome" true (od = ot);
        check_int "slice cycles" (Machine.stats md).Machine.cycles
          (Machine.stats mt).Machine.cycles;
        (match od with Machine.Done _ -> continue := false | Machine.Yielded -> ());
        if !continue then
          match Random.State.int rng 6 with
          | 0 ->
              Dtb.flush dd;
              Dtb.flush dt
          | 1 ->
              let tag = Random.State.int rng 256 in
              let rd = Dtb.invalidate dd ~tag in
              let rt = Dtb.invalidate dt ~tag in
              check_bool "invalidate parity" true (rd = rt)
          | _ -> ()
      done;
      Alcotest.(check string)
        "final status" (status_str (Machine.status md))
        (status_str (Machine.status mt));
      Alcotest.(check string) "output" (Machine.output md) (Machine.output mt);
      check_stats "sliced" (Machine.stats md) (Machine.stats mt);
      check_int "dtb hits" (Dtb.hits dd) (Dtb.hits dt);
      check_int "dtb misses" (Dtb.misses dd) (Dtb.misses dt);
      check_int "dtb evictions" (Dtb.evictions dd) (Dtb.evictions dt);
      true)

(* -- Stale-closure regression -------------------------------------------------

   A tag upset leaves the buffer words untouched, so every compiled
   closure still agrees with memory; the guard-detected recovery
   ([Dtb.invalidate]) is the moment the entry must die.  Pinned at two
   levels: the directory's invalidation discipline, and a machine-level
   differential where both backends suffer the identical
   corrupt-then-invalidate sequence. *)

let test_corruption_drop_discipline () =
  let config = { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 8 } in
  let dtb = Dtb.create config ~buffer_base:100 in
  let hits tag = match Dtb.lookup dtb ~tag with `Hit _ -> true | `Miss -> false in
  check_bool "cold tag misses" false (hits 7);
  Dtb.begin_translation dtb ~tag:7;
  ignore (Dtb.emit dtb 1);
  ignore (Dtb.emit dtb 2);
  ignore (Dtb.end_translation dtb);
  check_bool "installed tag hits" true (hits 7);
  (* flip a bit above the set-index field: the corrupted key then hashes
     to the entry's own set, i.e. a lookup of it falsely hits — the case
     the guards catch and recover via [invalidate] *)
  match Dtb.corrupt_resident_tag dtb ~pick:0 ~flip:10 with
  | None -> Alcotest.fail "one entry is resident; corruption must land"
  | Some (old_key, new_key) ->
      check_int "the upset hits the installed key" 7 old_key;
      check_bool "the original tag is lost" false (hits 7);
      check_bool "the corrupted key falsely hits" true (hits new_key);
      (* the guard path detects the bogus hit and invalidates the key *)
      check_bool "invalidate drops the corrupted entry" true
        (Dtb.invalidate dtb ~tag:new_key);
      check_bool "the corrupted key then misses" false (hits new_key);
      check_bool "nothing is left to drop" false
        (Dtb.invalidate dtb ~tag:new_key)

let test_corruption_differential () =
  let p = compile "fib_rec" in
  let encoded = Codec.encode Kind.Huffman p in
  let layout = Layout.default in
  let make backend =
    let dtb =
      Dtb.create_shared ~policy:Dtb.Tagged ~programs:1 Dtb.paper_config
        ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
    in
    let m = U.prepare_dtb_shared ~layout ~backend ~dtb encoded in
    (m, dtb)
  in
  let md, dd = make `Decode in
  let mt, dt = make `Threaded in
  (* warm the buffer so translations (and closures) exist *)
  ignore (Machine.run_dir_quantum md ~quantum:40);
  ignore (Machine.run_dir_quantum mt ~quantum:40);
  (* identical deterministic corruption on both, then the guard recovery *)
  (match (Dtb.corrupt_resident_tag dd ~pick:3 ~flip:2,
          Dtb.corrupt_resident_tag dt ~pick:3 ~flip:2) with
  | Some (ok1, nk1), Some (ok2, nk2) ->
      check_int "same victim key" ok1 ok2;
      check_int "same corrupted key" nk1 nk2;
      check_bool "invalidate parity" true
        (Dtb.invalidate dd ~tag:nk1 = Dtb.invalidate dt ~tag:nk2)
  | _ -> Alcotest.fail "warmed DTB must have resident entries");
  let rec drain m =
    match Machine.run_dir_quantum m ~quantum:64 with
    | Machine.Yielded -> drain m
    | Machine.Done s -> s
  in
  let sd = drain md and st = drain mt in
  Alcotest.(check string) "final status" (status_str sd) (status_str st);
  Alcotest.(check string) "output" (Machine.output md) (Machine.output mt);
  check_stats "post-corruption" (Machine.stats md) (Machine.stats mt)

(* -- Self-modifying short code --------------------------------------------------

   A short-code loop inside the compile window runs until its closures
   are warm, then rewrites one of its own later words with [Pop_dir].
   The store reaches the window through the guest's own [mem_set], not
   through DTB surgery, so a compiled closure that outlived its word
   would print the stale operand and drift in cycles. *)

let test_self_modifying_short_loop () =
  let counter = 60 and s = 1100 in
  (* long side: BODY decrements the counter (halting at zero) and returns
     a Goto_stk target — s+3 to skip the rewrite while the loop warms, s+2
     (with the new word beneath it) once the counter drops below 4.  PRINT
     outputs the two words the loop pushed. *)
  let b = Asm.create () in
  let rewrite = Asm.new_label b and finish = Asm.new_label b in
  let body = Asm.here b in
  Asm.li b 2 counter;
  Asm.load b 0 2 0;
  Asm.alui b H.Sub 0 0 1;
  Asm.store b 0 2 0;
  Asm.jz b 0 finish;
  Asm.alui b H.Slt 3 0 4;
  Asm.jnz b 3 rewrite;
  Asm.li b 4 (s + 3);
  Asm.push_op b 4;
  Asm.ret b;
  Asm.place b rewrite;
  (* Push_imm has opcode and context 0, so [pack] is linear in the operand *)
  Asm.alui b H.Mul 5 0 (SF.pack SF.Push_imm 100);
  Asm.push_op b 5;
  Asm.li b 4 (s + 2);
  Asm.push_op b 4;
  Asm.ret b;
  Asm.place b finish;
  Asm.halt b;
  let print = Asm.here b in
  Asm.pop_op b 1;
  Asm.out b 1;
  Asm.pop_op b 1;
  Asm.out b 1;
  Asm.ret b;
  let program = Asm.finish b in
  let short =
    [
      SF.pack SF.Call_long body;
      SF.pack SF.Goto_stk 0;
      SF.pack SF.Pop_dir (s + 4);
      SF.pack SF.Push_imm 11;
      SF.pack SF.Push_imm 7 (* rewritten by s+2 *);
      SF.pack SF.Call_long print;
      SF.pack SF.Goto s;
    ]
  in
  let make backend =
    let m =
      Machine.create ~backend ~program ~mem_words:4096
        ~regions:
          [
            { Machine.rname = "ram"; base = 0; size = 1024; cost = 1 };
            { Machine.rname = "slow"; base = 1024; size = 1024; cost = 10 };
          ]
        ()
    in
    Machine.enable_short_compile m ~base:s ~size:16;
    List.iteri (fun i w -> Machine.poke m (s + i) w) short;
    Machine.poke m counter 10;
    Machine.set_reg m R.sp 100;
    Machine.set_reg m R.rsp 200;
    Machine.set_pc m (Machine.Short s);
    m
  in
  let md = make `Decode and mt = make `Threaded in
  let sd = Machine.run md and st = Machine.run mt in
  Alcotest.(check string) "status" (status_str sd) (status_str st);
  Alcotest.(check string) "decode halts" "halted" (status_str sd);
  let warm = String.concat "" (List.init 6 (fun _ -> "7\n11\n")) in
  Alcotest.(check string) "decode output"
    (warm ^ "300\n11\n200\n11\n100\n11\n") (Machine.output md);
  Alcotest.(check string) "output" (Machine.output md) (Machine.output mt);
  check_stats "self-modifying loop" (Machine.stats md) (Machine.stats mt)

(* -- Guest faults trap on both backends ----------------------------------------

   A short word whose 4-bit opcode field decodes to nothing (14 here) ends
   the run trapped, with one message on both backends and whether or not
   the threaded backend may compile the word. *)

let test_unknown_short_opcode_traps () =
  let b = Asm.create () in
  Asm.halt b;
  let program = Asm.finish b in
  let s = 512 in
  List.iter
    (fun (label, backend, window) ->
      let m =
        Machine.create ~backend ~program ~mem_words:1024
          ~regions:[ { Machine.rname = "ram"; base = 0; size = 1024; cost = 1 } ]
          ()
      in
      if window then Machine.enable_short_compile m ~base:s ~size:16;
      Machine.poke m s 14;
      Machine.set_pc m (Machine.Short s);
      Alcotest.(check string) label "trapped: unknown short opcode 14"
        (status_str (Machine.run m)))
    [
      ("decode", `Decode, false);
      ("threaded", `Threaded, false);
      ("threaded, compile window", `Threaded, true);
    ]

(* Basic-block translation of a long straight-line program outgrows the
   paper DTB's overflow area: the run ends trapped, the same on both
   backends. *)
let test_dtb_overflow_exhaustion_traps () =
  let p = compile "flat_straightline" in
  let run backend =
    U.run ~backend ~strategy:(U.Dtb_blocks (Dtb.paper_config, 8))
      ~kind:Kind.Huffman p
  in
  let d = run `Decode in
  Alcotest.(check string) "decode" "trapped: Dtb.emit: overflow area exhausted"
    (status_str d.U.status);
  check_result "threaded" d (run `Threaded)

(* -- Long-code cache across timings --------------------------------------------

   Compiled long closures read timing and region costs through the
   machine, so a program object's cached closure array serves any
   timing: the second threaded run below reuses the array the first one
   warmed.  Each run must still equal decode under its own timing. *)

let test_long_cache_across_timings () =
  List.iter
    (fun workload ->
      let p = compile workload in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun (tname, timing) ->
              let d =
                U.run ~timing ~backend:`Decode ~strategy ~kind:Kind.Huffman p
              in
              let t =
                U.run ~timing ~backend:`Threaded ~strategy ~kind:Kind.Huffman p
              in
              check_result
                (String.concat "/" [ workload; sname; tname ])
                d t)
            [
              ("paper", Timing.paper);
              ("t2=40,t_dtb=5", Timing.make ~t2:40 ~t_dtb:5 ());
            ])
        [
          ("interp", U.Interp);
          ("dtb", U.Dtb_strategy Dtb.paper_config);
          ("der", U.Der U.Der_level1);
        ])
    [ "fact_iter"; "flat_straightline" ]

(* -- Shared-DTB policies (the closed mix) ------------------------------------ *)

let check_trace label (a : Trace.t) (b : Trace.t) =
  check_int (label ^ ": recorded") (Trace.recorded a) (Trace.recorded b);
  check_bool (label ^ ": events") true (Trace.events a = Trace.events b)

let test_mix_policies_backends () =
  let mix = [ encode "fact_iter"; encode "fib_rec"; encode "gcd" ] in
  List.iter
    (fun policy ->
      let run backend =
        Resilient.run_encoded ~backend ~policy ~quantum:16
          ~config:Dtb.paper_config ~fconfig:Resilient.zero mix
      in
      let d = run `Decode and t = run `Threaded in
      let label = Dtb.policy_name policy in
      check_int (label ^ ": total cycles") d.Resilient.rr_makespan
        t.Resilient.rr_makespan;
      check_int (label ^ ": switches") d.Resilient.rr_switches t.Resilient.rr_switches;
      check_int (label ^ ": flushes") d.Resilient.rr_flushes t.Resilient.rr_flushes;
      check_int (label ^ ": evictions") d.Resilient.rr_evictions t.Resilient.rr_evictions;
      check_bool (label ^ ": hit ratio") true
        (d.Resilient.rr_hit_ratio = t.Resilient.rr_hit_ratio);
      List.iter2
        (fun (pd : Resilient.program_report) (pt : Resilient.program_report) ->
          check_bool (label ^ "/" ^ pd.Resilient.pr_name ^ ": program result") true
            (pd = pt))
        d.Resilient.rr_programs t.Resilient.rr_programs;
      check_trace label d.Resilient.rr_trace t.Resilient.rr_trace)
    [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]

(* -- Fault driver ------------------------------------------------------------- *)

let check_resilient label (d : Resilient.result) (t : Resilient.result) =
  check_int (label ^ ": total cycles") d.Resilient.rr_makespan
    t.Resilient.rr_makespan;
  check_int (label ^ ": switches") d.Resilient.rr_switches
    t.Resilient.rr_switches;
  check_int (label ^ ": flushes") d.Resilient.rr_flushes t.Resilient.rr_flushes;
  List.iter2
    (fun (pd : Resilient.program_report) (pt : Resilient.program_report) ->
      check_bool (label ^ "/" ^ pd.Resilient.pr_name ^ ": report") true (pd = pt))
    d.Resilient.rr_programs t.Resilient.rr_programs;
  check_trace label d.Resilient.rr_trace t.Resilient.rr_trace

let test_fault_zero_backends () =
  let mix = [ encode "fact_iter"; encode "fib_rec" ] in
  let run backend =
    Resilient.run_encoded ~backend ~policy:Dtb.Tagged ~quantum:16
      ~config:Dtb.paper_config ~fconfig:Resilient.zero mix
  in
  check_resilient "zero-fault" (run `Decode) (run `Threaded)

(* The end-to-end stale-closure pin: injected PSDER-word faults flip
   buffer words; guards detect the checksum mismatch on the next hit and
   invalidate the entry.  If the threaded backend kept a closure across
   either the word flip or the invalidation, its cycles and state would
   diverge from decode's. *)
let test_fault_injected_backends () =
  let mix = [ encode "fib_rec"; encode "gcd" ] in
  let spec =
    { Injector.seed = 1337;
      rates = [ (Injector.Psder_word, 0.02); (Injector.Dtb_tag, 0.01) ];
      explicit = [] }
  in
  let run backend =
    Resilient.run_encoded ~backend ~policy:Dtb.Tagged ~quantum:16
      ~config:Dtb.paper_config ~fconfig:(Resilient.protected spec) mix
  in
  check_resilient "injected-fault" (run `Decode) (run `Threaded)

let qcheck = QCheck_alcotest.to_alcotest

(* A DTB hit allocates nothing: [Dtb.lookup_addr] answers with an int and
   [Machine.set_short_pc] sets the pc in place.  The second of two runs is
   measured, so the generators cached on the encoding are warm; what is
   left (set-up, the misses, threaded closures) stays far below half a
   word per INTERP, where a boxed answer and a boxed pc alone would cost
   four. *)
let test_dtb_hit_allocation () =
  List.iter
    (fun (label, backend) ->
      List.iter
        (fun name ->
          let _, encoded = encode name in
          let run () =
            U.run_encoded ~backend ~strategy:(U.Dtb_strategy Dtb.paper_config)
              encoded
          in
          ignore (run ());
          let before = Gc.minor_words () in
          let r = run () in
          let words = Gc.minor_words () -. before in
          let per =
            words /. float_of_int r.U.machine_stats.Machine.interp_count
          in
          check_bool
            (Printf.sprintf "%s, %s: %.3f minor words per INTERP < 0.5" name
               label per)
            true (per < 0.5))
        [ "fib_rec"; "gcd" ])
    [ ("decode", `Decode); ("threaded", `Threaded) ]

let suite =
  ( "backend",
    [
      Alcotest.test_case "golden suites, both backends" `Slow
        test_golden_backends;
      Alcotest.test_case "corruption drop discipline" `Quick
        test_corruption_drop_discipline;
      Alcotest.test_case "corrupt+invalidate differential" `Quick
        test_corruption_differential;
      Alcotest.test_case "self-modifying short loop, both backends" `Quick
        test_self_modifying_short_loop;
      Alcotest.test_case "long-code cache across timings" `Quick
        test_long_cache_across_timings;
      Alcotest.test_case "a DTB hit allocates nothing, both backends" `Quick
        test_dtb_hit_allocation;
      Alcotest.test_case "mix policies, both backends" `Slow
        test_mix_policies_backends;
      Alcotest.test_case "zero-fault driver, both backends" `Slow
        test_fault_zero_backends;
      Alcotest.test_case "injected-fault driver, both backends" `Slow
        test_fault_injected_backends;
      qcheck prop_backend_differential;
      qcheck prop_backend_sliced_invalidation;
      Alcotest.test_case "unknown short opcode traps, both backends" `Quick
        test_unknown_short_opcode_traps;
      Alcotest.test_case "DTB overflow exhaustion traps, both backends" `Quick
        test_dtb_overflow_exhaustion_traps;
    ] )
