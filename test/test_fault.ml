(* Tests for the resilience subsystem: injector determinism, guard
   checksums, DTB corruption/invalidation hooks, checkpoint rollback,
   the solo run (its memo key and its equality with the single-program
   run), the QCheck recovery invariant, directed triggers for each recovery
   mechanism (guard detection, retry backoff, checkpoint rollback,
   watchdog downgrade), the campaign grid, and the runaway-program fuel
   guard. *)

module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Machine = Uhm_machine.Machine
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Injector = Uhm_fault.Injector
module Guard = Uhm_fault.Guard
module Resilient = Uhm_fault.Resilient
module Experiment = Uhm_fault.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let compile name = Suite.compile (Suite.find name)
let encode name = (name, Codec.encode Kind.Huffman (compile name))

(* -- Injector: seeded determinism -------------------------------------------- *)

(* Drain a stream by polling [due] at a stride, as the driver does with
   the monotonic INTERP count. *)
let collect spec ~asid ~upto ~stride =
  let t = Injector.create spec ~asid in
  let rec go acc step =
    if step > upto then List.rev acc
    else go (List.rev_append (Injector.due t ~step) acc) (step + stride)
  in
  go [] 0

let test_injector_determinism () =
  let spec =
    {
      Injector.seed = 42;
      rates = [ (Injector.Psder_word, 0.01); (Injector.Mem_word, 0.003) ];
      explicit = [];
    }
  in
  let a = collect spec ~asid:0 ~upto:30_000 ~stride:500 in
  let b = collect spec ~asid:0 ~upto:30_000 ~stride:500 in
  check_bool "same spec and asid: identical schedules" true (a = b);
  check_bool "the schedule actually fires" true (List.length a > 10);
  (* polling granularity must not change what fires, only when it is seen *)
  let c = collect spec ~asid:0 ~upto:30_000 ~stride:7 in
  check_bool "stride-independent schedule" true (a = c);
  let other = collect spec ~asid:1 ~upto:30_000 ~stride:500 in
  check_bool "different asid: different schedule" true (a <> other);
  (* steps are non-decreasing and each fault is delivered once *)
  let steps = List.map (fun f -> f.Injector.f_step) a in
  check_bool "firing order is by step" true
    (List.for_all2 ( <= ) steps (List.tl steps @ [ max_int ]))

let test_injector_zero_rate_reserves_split () =
  let base cls_rate =
    {
      Injector.seed = 7;
      rates = [ (Injector.Dtb_tag, cls_rate); (Injector.Psder_word, 0.01) ];
      explicit = [];
    }
  in
  let psder spec =
    List.filter
      (fun f -> f.Injector.f_class = Injector.Psder_word)
      (collect spec ~asid:0 ~upto:20_000 ~stride:100)
  in
  check_bool
    "toggling a class between 0 and a positive rate leaves the others' \
     schedules untouched"
    true
    (psder (base 0.) = psder (base 0.5))

let test_injector_explicit () =
  let spec =
    {
      Injector.seed = 1;
      rates = [];
      explicit =
        [ (0, 50, Injector.Translator); (1, 10, Injector.Dtb_tag);
          (0, 50, Injector.Mem_word) ];
    }
  in
  let t0 = Injector.create spec ~asid:0 in
  check_int "nothing due before the stamp" 0
    (List.length (Injector.due t0 ~step:49));
  let fired = Injector.due t0 ~step:60 in
  check_int "both asid-0 events fire at their stamp" 2 (List.length fired);
  List.iter
    (fun f ->
      check_int "scheduled step is reported" 50 f.Injector.f_step;
      check_bool "asid 1's event never leaks into asid 0's stream" true
        (f.Injector.f_class <> Injector.Dtb_tag))
    fired;
  check_int "each event is consumed exactly once" 0
    (List.length (Injector.due t0 ~step:1_000_000));
  let t1 = Injector.create spec ~asid:1 in
  match Injector.due t1 ~step:10 with
  | [ f ] ->
      check_bool "asid 1 sees its event" true
        (f.Injector.f_class = Injector.Dtb_tag)
  | l -> Alcotest.failf "asid 1: expected one event, got %d" (List.length l)

(* -- Guards: checksum detection ---------------------------------------------- *)

let test_guard_checksum () =
  let g = Guard.create () in
  let buf = Hashtbl.create 8 in
  let poke addr word = Hashtbl.replace buf addr word in
  let peek addr = try Hashtbl.find buf addr with Not_found -> 0 in
  let words = [ (100, 0x1234); (101, 0x0FF0); (112, 0x8001) ] in
  Guard.begin_install g;
  List.iter
    (fun (addr, word) ->
      poke addr word;
      Guard.on_emit g ~addr ~word)
    words;
  Guard.finish_install g ~dir_addr:7 ~start_addr:100;
  check_int "one guarded entry" 1 (Guard.guarded g);
  (match Guard.check g ~peek ~dir_addr:7 ~start_addr:100 with
  | `Ok n -> check_int "checksum covers every emitted word" 3 n
  | _ -> Alcotest.fail "clean entry must verify");
  (* every single-bit flip of every covered word must be caught *)
  List.iter
    (fun (addr, word) ->
      for bit = 0 to 15 do
        poke addr (word lxor (1 lsl bit));
        (match Guard.check g ~peek ~dir_addr:7 ~start_addr:100 with
        | `Corrupt _ -> ()
        | _ -> Alcotest.failf "flip of bit %d at %d undetected" bit addr);
        poke addr word
      done)
    words;
  (match Guard.check g ~peek ~dir_addr:8 ~start_addr:100 with
  | `Mismatch -> ()
  | _ -> Alcotest.fail "wrong DIR address must be a mismatch");
  (match Guard.check g ~peek ~dir_addr:7 ~start_addr:999 with
  | `Unguarded -> ()
  | _ -> Alcotest.fail "unknown entry must be unguarded");
  Guard.drop g ~start_addr:100;
  (match Guard.check g ~peek ~dir_addr:7 ~start_addr:100 with
  | `Unguarded -> ()
  | _ -> Alcotest.fail "dropped entry must be unguarded");
  (* the translator-fault path: an abandoned install records nothing *)
  Guard.begin_install g;
  Guard.on_emit g ~addr:200 ~word:1;
  Guard.abandon g;
  check_int "abandoned install leaves no record" 0 (Guard.guarded g)

(* -- DTB resilience hooks ----------------------------------------------------- *)

let small_config = { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 16 }

let install dtb ~tag =
  Dtb.begin_translation dtb ~tag;
  ignore (Dtb.emit dtb 1);
  ignore (Dtb.emit dtb 2);
  ignore (Dtb.end_translation dtb)

let test_dtb_corrupt_and_invalidate () =
  let dtb = Dtb.create small_config ~buffer_base:0 in
  check_bool "nothing resident: corruption has no target" true
    (Dtb.corrupt_resident_tag dtb ~pick:0 ~flip:0 = None);
  install dtb ~tag:42;
  (match Dtb.lookup dtb ~tag:42 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "freshly installed tag must hit");
  (match Dtb.corrupt_resident_tag dtb ~pick:3 ~flip:7 with
  | Some (old_key, new_key) ->
      check_bool "corruption flips exactly one bit" true
        (old_key <> new_key && old_key lxor new_key land (old_key lxor new_key - 1) >= 0)
  | None -> Alcotest.fail "a resident entry must be corruptible");
  (match Dtb.lookup dtb ~tag:42 with
  | `Miss -> ()
  | `Hit _ ->
      Alcotest.fail
        "the original tag must miss after corruption (incl. the last cache)");
  (* targeted invalidation: the recovery path *)
  let dtb2 = Dtb.create small_config ~buffer_base:0 in
  install dtb2 ~tag:7;
  check_bool "invalidate drops the entry" true (Dtb.invalidate dtb2 ~tag:7);
  (match Dtb.lookup dtb2 ~tag:7 with
  | `Miss -> ()
  | `Hit _ -> Alcotest.fail "invalidated tag must miss (incl. the last cache)");
  check_bool "second invalidate finds nothing" false (Dtb.invalidate dtb2 ~tag:7);
  check_int "buffer empty again" 0 (Dtb.resident_entries dtb2)

(* Aborting an in-progress install (the recovery path when a machine dies
   mid-translation) must drop the half-installed entry, return its
   overflow chain, and leave the directory closed for flush/invalidate. *)
let test_dtb_abort_translation () =
  let dtb = Dtb.create small_config ~buffer_base:0 in
  (match Dtb.abort_translation dtb with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "abort with no open translation must raise");
  install dtb ~tag:3;
  let allocs0 = Dtb.overflow_allocations dtb in
  Dtb.begin_translation dtb ~tag:11;
  for i = 1 to 5 do
    ignore (Dtb.emit dtb i)
  done;
  check_bool "the long install chained an overflow block" true
    (Dtb.overflow_allocations dtb > allocs0);
  Dtb.abort_translation dtb;
  (match Dtb.lookup dtb ~tag:11 with
  | `Miss -> ()
  | `Hit _ -> Alcotest.fail "aborted tag must miss (incl. the last cache)");
  (match Dtb.lookup dtb ~tag:3 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "an unrelated resident entry must survive the abort");
  check_int "only the unrelated entry stays resident" 1
    (Dtb.resident_entries dtb);
  (* the aborted chain is back on the free list: a translation claiming
     every overflow block still fits *)
  Dtb.begin_translation dtb ~tag:11;
  for i = 1 to 3 + (2 * small_config.Dtb.overflow_blocks) do
    ignore (Dtb.emit dtb i)
  done;
  ignore (Dtb.end_translation dtb);
  (* and the directory is quiescent again: flush does not refuse *)
  Dtb.flush dtb;
  check_int "flush after an abort leaves nothing resident" 0
    (Dtb.resident_entries dtb)

(* -- Checkpoint / restore roundtrip ------------------------------------------- *)

(* Every word of memory, order-sensitive, read without charging cycles. *)
let memory_digest m =
  let h = ref 0 in
  for a = 0 to Uhm_psder.Layout.default.Uhm_psder.Layout.mem_words - 1 do
    h := ((!h * 1000003) + Machine.peek m a) land max_int
  done;
  !h

(* A snapshot less its statistics, which a restore leaves running. *)
let resume_state (s : Machine.snapshot) =
  ( s.Machine.snap_pc, s.Machine.snap_status, s.Machine.snap_regs,
    s.Machine.snap_op_stack, s.Machine.snap_ret_stack )

let test_checkpoint_roundtrip () =
  let _, encoded = encode "fact_iter" in
  let m = U.prepare_interp encoded in
  (match Machine.run_for m ~budget:20_000 with
  | Machine.Yielded -> ()
  | Machine.Done _ -> Alcotest.fail "fact_iter must outlive the warmup budget");
  let ck = Machine.checkpoint m in
  check_bool "checkpoint captures written pages" true
    (Machine.checkpoint_pages ck > 0);
  let snap0 = Machine.snapshot m in
  let out0 = Machine.output m in
  let mem0 = memory_digest m in
  ignore (Machine.run m);
  let final_out = Machine.output m in
  check_bool "the run kept writing after the checkpoint" true
    (String.length final_out > String.length out0);
  Machine.restore m ck;
  let snap1 = Machine.snapshot m in
  check_bool "pc restored" true (snap0.Machine.snap_pc = snap1.Machine.snap_pc);
  check_bool "registers restored" true
    (snap0.Machine.snap_regs = snap1.Machine.snap_regs);
  check_bool "operand stack restored" true
    (snap0.Machine.snap_op_stack = snap1.Machine.snap_op_stack);
  check_bool "return stack restored" true
    (snap0.Machine.snap_ret_stack = snap1.Machine.snap_ret_stack);
  check_string "output truncated to the checkpoint" out0 (Machine.output m);
  check_int "memory restored" mem0 (memory_digest m);
  ignore (Machine.run m);
  check_string "replay reproduces the final output" final_out (Machine.output m);
  (* copy-on-write: the replay wrote the checkpoint's pages again, so a
     machine that wrote them in place (or gave them to the pool at the
     first restore) has lost the checkpoint by now *)
  Machine.restore m ck;
  check_bool "second restore: same snapshot" true
    (resume_state (Machine.snapshot m) = resume_state snap1);
  check_int "second restore: same memory" mem0 (memory_digest m);
  check_string "second restore: same output" out0 (Machine.output m);
  ignore (Machine.run m);
  check_string "second replay: same final output" final_out (Machine.output m);
  (* the checkpoint outlives its machine: recycling [m] right after a
     restore must not pool the pages it shares with [ck], which a fresh
     machine on this domain would otherwise take and dirty *)
  Machine.restore m ck;
  Machine.recycle m;
  let m2 = U.prepare_interp encoded in
  ignore (Machine.run m2);
  check_string "a new machine runs on the pooled pages" final_out
    (Machine.output m2);
  let m3 = U.prepare_interp encoded in
  Machine.restore m3 ck;
  check_int "restored into a fresh machine: same memory" mem0
    (memory_digest m3);
  check_bool "restored into a fresh machine: same snapshot" true
    (resume_state (Machine.snapshot m3) = resume_state snap1);
  ignore (Machine.run m3);
  check_string "restored into a fresh machine: the rest of the output"
    final_out (out0 ^ Machine.output m3);
  Machine.recycle m2;
  Machine.recycle m3

(* A checkpoint is charged per 4,096-word page written, whatever the
   granule copy-on-write copies in: two writes 512 words apart are one
   charged page, a write in the next 4,096 words is a second.  A granule
   first written after the checkpoint reads zero again after [restore]. *)
let test_checkpoint_charge_granule () =
  let b = Uhm_machine.Asm.create () in
  let m =
    Machine.create ~program:(Uhm_machine.Asm.finish b) ~mem_words:16384
      ~regions:[ { Machine.rname = "ram"; base = 0; size = 16384; cost = 1 } ]
      ()
  in
  check_int "nothing written: nothing charged" 0
    (Machine.checkpoint_pages (Machine.checkpoint m));
  Machine.poke m 100 1;
  Machine.poke m 1000 2;
  check_int "two granules of one page: one charged page" 1
    (Machine.checkpoint_pages (Machine.checkpoint m));
  Machine.poke m 4200 3;
  let ck = Machine.checkpoint m in
  check_int "a second page: two charged pages" 2 (Machine.checkpoint_pages ck);
  Machine.poke m 100 7;
  Machine.poke m 2100 4;
  Machine.poke m 9000 5;
  Machine.restore m ck;
  check_int "a rewritten word reverts" 1 (Machine.peek m 100);
  check_int "a word written alongside" 2 (Machine.peek m 1000);
  check_int "a later granule of a charged page reads zero" 0
    (Machine.peek m 2100);
  check_int "a page first written after the checkpoint reads zero" 0
    (Machine.peek m 9000);
  check_int "restored pages: still two" 2
    (Machine.checkpoint_pages (Machine.checkpoint m))

(* -- The solo run -------------------------------------------------------------- *)

(* The memo is keyed on the encoding, not the DIR program: one compiled
   program encoded two ways has two solo runs.  Keyed on the program, the
   Digram encoding would be served the Huffman cycles (55896) and a
   never-preempted Digram mix would report a 0.993x slowdown. *)
let test_solo_keyed_on_encoding () =
  let p = compile "fact_iter" in
  let huffman = Codec.encode Kind.Huffman p and digram = Codec.encode Kind.Digram p in
  let solo e = (Resilient.solo ~config:Dtb.paper_config e).Resilient.sr_cycles in
  let single e =
    (U.run_encoded ~strategy:(U.Dtb_strategy Dtb.paper_config) e).U.cycles
  in
  check_int "huffman solo cycles" 55896 (solo huffman);
  check_int "digram solo cycles" 55499 (solo digram);
  check_int "huffman = single-program run" (single huffman) (solo huffman);
  check_int "digram = single-program run" (single digram) (solo digram);
  (* the grid encodes the same program object with Digram after the
     Huffman solo run filled the memo *)
  match
    Experiment.mix_grid_slots ~domains:1 ~quanta:[ Resilient.solo_quantum ]
      ~kind:Kind.Digram ~policies:[ Dtb.Flush_on_switch ]
      ~configs:[ Dtb.paper_config ] [ ("fact_iter", p) ]
  with
  | [ Uhm_core.Sweep.Completed cell ] ->
      Alcotest.(check (list int)) "grid solo cycles" [ 55499 ]
        cell.Experiment.mc_solo_cycles;
      List.iter2
        (fun (pr : Resilient.program_report) solo ->
          check_string "slowdown" "1.000"
            (Printf.sprintf "%.3f"
               (Resilient.slowdown ~cycles:pr.Resilient.pr_cycles ~solo));
          check_bool "slowdown exactly 1.0" true
            (Resilient.slowdown ~cycles:pr.Resilient.pr_cycles ~solo = 1.0))
        cell.Experiment.mc_result.Resilient.rr_programs
        cell.Experiment.mc_solo_cycles
  | _ -> Alcotest.fail "expected one completed cell"

(* One solo run serves the mix's slowdowns, the service's slowdowns and
   the chaos verification, which used to be a plain single-program run
   for the first two: pin that the two executions agree. *)
let test_solo_equals_single_program () =
  let programs =
    List.map (fun n -> (n, compile n)) [ "fact_iter"; "gcd"; "flat_straightline" ]
    @ [ ("ftn_euclid", Uhm_ftn.Suite.compile (Uhm_ftn.Suite.find "ftn_euclid")) ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun kind ->
          List.iter
            (fun config ->
              List.iter
                (fun fuel ->
                  List.iter
                    (fun backend ->
                      (* a fresh encoding per backend: the memo leaves the
                         backend out of its key *)
                      let e = Codec.encode kind p in
                      let at =
                        Printf.sprintf "%s/%s/%d sets/fuel %s/%s" name
                          (Kind.name kind) config.Dtb.sets
                          (match fuel with None -> "-" | Some f -> string_of_int f)
                          (match backend with `Decode -> "decode" | `Threaded -> "threaded")
                      in
                      let sr = Resilient.solo ?fuel ~backend ~config e in
                      let u =
                        U.run_encoded ?fuel ~backend
                          ~strategy:(U.Dtb_strategy config) e
                      in
                      check_int (at ^ ": cycles") u.U.cycles sr.Resilient.sr_cycles;
                      check_bool (at ^ ": status") true
                        (u.U.status = sr.Resilient.sr_status);
                      check_string (at ^ ": output") u.U.output
                        sr.Resilient.sr_output)
                    [ `Decode; `Threaded ])
                [ None; Some 50_000 ])
            [ Dtb.paper_config; small_config ])
        [ Kind.Huffman; Kind.Digram ])
    programs

(* -- The recovery invariant --------------------------------------------------- *)

let summary (r : Resilient.result) =
  List.map
    (fun (p : Resilient.program_report) ->
      (p.Resilient.pr_status, p.Resilient.pr_output, p.Resilient.pr_arch_hash))
    r.Resilient.rr_programs

let inv_programs = lazy (List.map encode [ "fact_iter"; "gcd" ])

let baseline_memo : (Dtb.policy * int, _) Hashtbl.t = Hashtbl.create 4

let baseline ~policy ~quantum =
  match Hashtbl.find_opt baseline_memo (policy, quantum) with
  | Some s -> s
  | None ->
      let s =
        summary
          (Resilient.run_encoded ~trace_capacity:16 ~policy ~quantum
             ~config:Dtb.paper_config ~fconfig:Resilient.zero
             (Lazy.force inv_programs))
      in
      Hashtbl.replace baseline_memo (policy, quantum) s;
      s

let run_faulty ?(policy = Dtb.Tagged) ?(quantum = 32) ?(retry_limit = 3)
    ?(watchdog_window = 4096) ?(watchdog_threshold = 8)
    ?(checkpoint_every = 256) ~cls ~rate ~seed () =
  let fconfig =
    {
      Resilient.injector =
        { Injector.seed; rates = [ (cls, rate) ]; explicit = [] };
      guards = true;
      checkpoint_every =
        (if cls = Injector.Mem_word then Some checkpoint_every else None);
      retry_limit;
      backoff_cycles = 64;
      watchdog_window;
      watchdog_threshold;
    }
  in
  Resilient.run_encoded ~trace_capacity:4096 ~policy ~quantum
    ~config:Dtb.paper_config ~fconfig (Lazy.force inv_programs)

let prop_recovery_invariant =
  let arb =
    QCheck.make
      ~print:(fun (cls, rate, seed, policy) ->
        Printf.sprintf "%s rate=%g seed=%d policy=%s"
          (Injector.class_name cls) rate seed (Dtb.policy_name policy))
      QCheck.Gen.(
        quad
          (oneofl Injector.all_classes)
          (float_range 0.0005 0.02)
          (int_range 1 10_000)
          (oneofl [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]))
  in
  QCheck.Test.make ~count:12 ~name:"recovered final state = fault-free state"
    arb
    (fun (cls, rate, seed, policy) ->
      let r = run_faulty ~policy ~cls ~rate ~seed () in
      summary r = baseline ~policy ~quantum:32)

(* -- Directed triggers for each mechanism ------------------------------------- *)

(* Rates make triggers likely, not certain; scan a few seeds and insist
   one fires.  Once found, the seed is fixed by determinism, so the scan
   never flakes. *)
let scan_seeds ~what ~trigger run =
  let rec go = function
    | [] -> Alcotest.failf "%s: no seed in 1..12 triggered the mechanism" what
    | s :: rest -> (
        let r = run s in
        if trigger r then r else go rest)
  in
  go [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let recovered what (r : Resilient.result) =
  check_bool (what ^ ": recovered state = fault-free state") true
    (summary r = baseline ~policy:Dtb.Tagged ~quantum:32)

let trace_count f (r : Resilient.result) =
  List.fold_left (fun acc (_, c) -> acc + f c) 0
    (Trace.tallies r.Resilient.rr_trace)

let test_trigger_guard_detection () =
  let r =
    scan_seeds ~what:"psder corruption"
      ~trigger:(fun r -> trace_count (fun c -> c.Trace.c_detections) r > 0)
      (fun seed -> run_faulty ~cls:Injector.Psder_word ~rate:0.02 ~seed ())
  in
  recovered "guard detection" r;
  check_bool "detections are classified as psder-word" true
    (List.mem_assoc "psder-word" (Trace.detected_by_class r.Resilient.rr_trace));
  check_bool "every detection retried a translation" true
    (trace_count (fun c -> c.Trace.c_retries) r > 0);
  (* the retry events carry the attempt number, starting at 1 *)
  let attempts =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Recovery_retry { attempt; _ } -> Some attempt
        | _ -> None)
      (Trace.events r.Resilient.rr_trace)
  in
  check_bool "retry attempts start at 1" true
    (attempts <> [] && List.for_all (fun a -> a >= 1) attempts)

let test_trigger_rollback () =
  let r =
    scan_seeds ~what:"mem-word corruption"
      ~trigger:(fun r -> trace_count (fun c -> c.Trace.c_rollbacks) r > 0)
      (fun seed ->
        run_faulty ~cls:Injector.Mem_word ~rate:0.005 ~checkpoint_every:128
          ~seed ())
  in
  recovered "checkpoint rollback" r;
  check_bool "rollbacks were detected as mem-word faults" true
    (List.mem_assoc "mem-word" (Trace.detected_by_class r.Resilient.rr_trace));
  check_bool "rollback events carry restored pages" true
    (List.exists
       (fun (e : Trace.event) ->
         match e.Trace.kind with
         | Trace.Rollback { pages; _ } -> pages > 0
         | _ -> false)
       (Trace.events r.Resilient.rr_trace))

let test_trigger_translator_fault () =
  let r =
    scan_seeds ~what:"translator fault"
      ~trigger:(fun r -> trace_count (fun c -> c.Trace.c_injections) r > 0)
      (fun seed -> run_faulty ~cls:Injector.Translator ~rate:0.02 ~seed ())
  in
  recovered "dropped install" r;
  (* every dropped install forces a later re-translation: strictly more
     translation events than the fault-free run at the same operating point *)
  let base =
    Resilient.run_encoded ~trace_capacity:16 ~policy:Dtb.Tagged ~quantum:32
      ~config:Dtb.paper_config ~fconfig:Resilient.zero
      (Lazy.force inv_programs)
  in
  check_bool "dropped installs are re-translated" true
    (trace_count (fun c -> c.Trace.c_translations) r
    > trace_count (fun c -> c.Trace.c_translations) base)

let test_trigger_watchdog_downgrade () =
  let r =
    scan_seeds ~what:"watchdog downgrade"
      ~trigger:(fun r -> trace_count (fun c -> c.Trace.c_downgrades) r > 0)
      (fun seed ->
        run_faulty ~cls:Injector.Psder_word ~rate:0.05
          ~watchdog_window:1_000_000 ~watchdog_threshold:2 ~seed ())
  in
  recovered "watchdog downgrade" r;
  check_bool "the report marks the program downgraded" true
    (List.exists
       (fun (p : Resilient.program_report) -> p.Resilient.pr_downgraded)
       r.Resilient.rr_programs)

let test_trigger_dtb_tag () =
  let r =
    scan_seeds ~what:"dtb tag corruption"
      ~trigger:(fun r -> trace_count (fun c -> c.Trace.c_injections) r > 0)
      (fun seed -> run_faulty ~cls:Injector.Dtb_tag ~rate:0.02 ~seed ())
  in
  recovered "dtb tag corruption" r

(* -- The campaign grid --------------------------------------------------------- *)

(* every cell of a supervised fault grid must complete *)
let completed_points slots =
  List.map
    (function
      | Uhm_core.Sweep.Completed p -> p
      | Uhm_core.Sweep.Quarantined q ->
          Alcotest.failf "cell %d quarantined: %s" q.Uhm_core.Sweep.q_index
            q.Uhm_core.Sweep.q_reason)
    slots

let test_campaign_grid () =
  let programs = List.map (fun n -> (n, compile n)) [ "fact_iter"; "gcd" ] in
  let grid domains =
    Experiment.fault_grid_slots ~domains ~quanta:[ 32 ] ~seed:5
      ~kind:Kind.Huffman
      ~classes:[ Injector.Psder_word; Injector.Mem_word ]
      ~rates:[ 0.; 1e-3 ]
      ~policies:[ Dtb.Tagged ]
      ~configs:[ Dtb.paper_config ] programs
    |> completed_points
  in
  let points = grid 2 in
  check_int "2 classes x 2 rates x 1 policy x 1 quantum x 1 config" 4
    (List.length points);
  List.iter
    (fun (p : Experiment.point) ->
      let what =
        Printf.sprintf "%s@%g" (Injector.class_name p.Experiment.fp_class)
          p.Experiment.fp_rate
      in
      check_bool (what ^ " recovered") true p.Experiment.fp_recovered_ok;
      check_bool (what ^ " overhead >= 1") true (p.Experiment.fp_overhead >= 1.);
      if p.Experiment.fp_rate = 0. then
        check_int (what ^ " rate 0 injects nothing") 0 p.Experiment.fp_injected)
    points;
  (* byte-identical at any domain count *)
  let strip (p : Experiment.point) =
    ( p.Experiment.fp_class, p.Experiment.fp_rate, p.Experiment.fp_seed,
      p.Experiment.fp_recovered_ok, p.Experiment.fp_overhead,
      p.Experiment.fp_injected, p.Experiment.fp_detected,
      p.Experiment.fp_retries, p.Experiment.fp_rollbacks,
      p.Experiment.fp_result.Resilient.rr_makespan )
  in
  check_bool "grid is domain-count independent" true
    (List.map strip points = List.map strip (grid 1))

(* Regression: before [Dtb.abort_translation] existed these exact
   campaign cells crashed — a mem-word flip drove flat_straightline's
   machine into an error status mid-install, and the slice-end rollback
   found the shared directory still open ([flush] under Flush_on_switch,
   [invalidate_asid] under Tagged).  Both cleanup flavors must now
   complete and recover. *)
let test_mid_install_death_aborts () =
  let programs =
    List.map
      (fun n -> (n, compile n))
      [ "fact_iter"; "gcd"; "flat_straightline" ]
  in
  let points =
    Experiment.fault_grid_slots ~domains:1 ~quanta:[ 64 ] ~seed:1
      ~kind:Kind.Huffman
      ~classes:[ Injector.Mem_word ]
      ~rates:[ 1e-4; 1e-3 ]
      ~policies:[ Dtb.Flush_on_switch; Dtb.Tagged ]
      ~configs:[ Dtb.paper_config ] programs
    |> completed_points
  in
  check_int "1 class x 2 rates x 2 policies" 4 (List.length points);
  List.iter
    (fun (p : Experiment.point) ->
      check_bool
        (Printf.sprintf "mem-word@%g under %s recovers" p.Experiment.fp_rate
           (Dtb.policy_name p.Experiment.fp_policy))
        true p.Experiment.fp_recovered_ok)
    points;
  check_bool "the cells actually rolled back" true
    (List.exists (fun (p : Experiment.point) -> p.Experiment.fp_rollbacks > 0)
       points)

(* -- Faulted goldens ------------------------------------------------------------- *)

(* Literal numbers of the protected fault path, one run per fault class x
   policy over fact_iter+gcd at rate 1e-3 (injector seed 7), quantum 32:
   (total cycles, switches, flushes, trace events recorded), then per
   program (cycles, injected, detected, retries, rollbacks, downgraded,
   arch hash).  Any drift in injection, detection, backoff, rollback,
   downgrade or trace sequencing moves one of them.  The threaded backend
   must reproduce every number: its compiled short words stay valid
   through DTB evictions, flushes and invalidations with no drop hook,
   because only a write to memory (which resets the word's slot) or a
   restore (which resets them all) can change what a word means. *)
let faulted_goldens =
  [
    ( Injector.Dtb_tag, Dtb.Tagged, (1867420, 150, 0, 2511),
      [
        (64979, 5, 0, 0, 0, false, 169439401008282417);
        (1802441, 63, 0, 0, 0, false, 47299934762874939);
      ] );
    ( Injector.Dtb_tag, Dtb.Flush_on_switch, (2068618, 150, 149, 5688),
      [
        (143650, 5, 0, 0, 0, false, 169439401008282417);
        (1924968, 63, 0, 0, 0, false, 47299934762874939);
      ] );
    ( Injector.Psder_word, Dtb.Tagged, (1865580, 150, 0, 2491),
      [
        (64792, 5, 0, 0, 0, false, 169439401008282417);
        (1800788, 63, 4, 4, 0, false, 47299934762874939);
      ] );
    ( Injector.Psder_word, Dtb.Flush_on_switch, (2065353, 150, 149, 5649),
      [
        (143416, 5, 0, 0, 0, false, 169439401008282417);
        (1921937, 63, 3, 3, 0, false, 47299934762874939);
      ] );
    ( Injector.Translator, Dtb.Tagged, (1865939, 150, 0, 2495),
      [
        (64792, 5, 0, 0, 0, false, 169439401008282417);
        (1801147, 63, 0, 0, 0, false, 47299934762874939);
      ] );
    ( Injector.Translator, Dtb.Flush_on_switch, (2065965, 150, 149, 5658),
      [
        (143591, 5, 0, 0, 0, false, 169439401008282417);
        (1922374, 63, 0, 0, 0, false, 47299934762874939);
      ] );
    ( Injector.Mem_word, Dtb.Tagged, (4765359, 180, 0, 3214),
      [
        (85535, 5, 5, 0, 5, false, 169439401008282417);
        (4679824, 9, 9, 0, 9, true, 47299934762874939);
      ] );
    ( Injector.Mem_word, Dtb.Flush_on_switch, (4992068, 180, 193, 6807),
      [
        (173032, 5, 5, 0, 5, false, 169439401008282417);
        (4819036, 9, 9, 0, 9, true, 47299934762874939);
      ] );
  ]

let test_faulted_goldens backend () =
  List.iter
    (fun (cls, policy, (total, switches, flushes, recorded), programs) ->
      let injector = { Injector.seed = 7; rates = [ (cls, 1e-3) ]; explicit = [] } in
      let r =
        Resilient.run_encoded ~backend ~policy ~quantum:32
          ~config:Dtb.paper_config ~fconfig:(Resilient.protected injector)
          (Lazy.force inv_programs)
      in
      let at = Printf.sprintf "%s/%s" (Injector.class_name cls) (Dtb.policy_name policy) in
      check_int (at ^ ": total cycles") total r.Resilient.rr_makespan;
      check_int (at ^ ": switches") switches r.Resilient.rr_switches;
      check_int (at ^ ": flushes") flushes r.Resilient.rr_flushes;
      check_int (at ^ ": trace events") recorded (Trace.recorded r.Resilient.rr_trace);
      List.iter2
        (fun (cycles, injected, detected, retries, rollbacks, downgraded, hash)
             (p : Resilient.program_report) ->
          let at = at ^ " " ^ p.Resilient.pr_name in
          check_int (at ^ ": cycles") cycles p.Resilient.pr_cycles;
          check_int (at ^ ": injected") injected p.Resilient.pr_injected;
          check_int (at ^ ": detected") detected p.Resilient.pr_detected;
          check_int (at ^ ": retries") retries p.Resilient.pr_retries;
          check_int (at ^ ": rollbacks") rollbacks p.Resilient.pr_rollbacks;
          check_bool (at ^ ": downgraded") downgraded p.Resilient.pr_downgraded;
          check_int (at ^ ": arch hash") hash p.Resilient.pr_arch_hash)
        programs r.Resilient.rr_programs)
    faulted_goldens

(* Guards off, PSDER words corrupted at a bruising rate: a corrupted
   machine can decode a garbage opcode.  That must end the program as a
   trap, not raise out of the driver, and no corrupted program may pass
   for the fault-free answer. *)
let test_guards_off_crash_traps () =
  let programs = List.map (fun n -> (n, compile n)) [ "fact_iter"; "string_out" ] in
  let run fconfig =
    Resilient.run ~fuel:500_000 ~policy:Dtb.Tagged ~quantum:24
      ~config:Dtb.paper_config ~fconfig ~kind:Kind.Packed programs
  in
  let clean = run Resilient.zero in
  let r =
    run
      {
        Resilient.zero with
        Resilient.injector =
          { Injector.seed = 3; rates = [ (Injector.Psder_word, 0.004) ]; explicit = [] };
      }
  in
  List.iter2
    (fun (c : Resilient.program_report) (p : Resilient.program_report) ->
      let same =
        p.Resilient.pr_status = c.Resilient.pr_status
        && String.equal p.Resilient.pr_output c.Resilient.pr_output
        && p.Resilient.pr_arch_hash = c.Resilient.pr_arch_hash
      in
      check_bool (p.Resilient.pr_name ^ ": intact, trapped or visibly off") true
        (same
        || p.Resilient.pr_status <> Machine.Halted
        || p.Resilient.pr_arch_hash <> c.Resilient.pr_arch_hash))
    clean.Resilient.rr_programs r.Resilient.rr_programs;
  check_bool "a garbage opcode became a machine trap" true
    (List.exists
       (fun (p : Resilient.program_report) ->
         match p.Resilient.pr_status with
         | Machine.Trapped m ->
             Astring_contains.contains m "unknown short opcode"
         | _ -> false)
       r.Resilient.rr_programs)

(* -- Satellite: the runaway-program fuel guard --------------------------------- *)

let test_fuel_runaway_guard () =
  let p =
    Uhm_compiler.Pipeline.compile_source ~name:"spin"
      "begin integer x; x := 0; while 0 = 0 do x := x + 1; end"
  in
  let encoded = Codec.encode Kind.Huffman p in
  let m = U.prepare_interp ~fuel:50_000 encoded in
  check_bool "an infinite loop terminates via the fuel guard" true
    (Machine.run m = Machine.Out_of_fuel);
  check_bool "fuel exhaustion is a distinct status" true
    (Machine.Out_of_fuel <> Machine.Halted)

let suite =
  ( "fault",
    [
      Alcotest.test_case "injector schedules are seeded and deterministic"
        `Quick test_injector_determinism;
      Alcotest.test_case "zero-rate classes still reserve their PRNG split"
        `Quick test_injector_zero_rate_reserves_split;
      Alcotest.test_case "explicit schedules fire once at their stamp" `Quick
        test_injector_explicit;
      Alcotest.test_case "guard checksum catches every single-bit flip" `Quick
        test_guard_checksum;
      Alcotest.test_case "DTB tag corruption and targeted invalidation" `Quick
        test_dtb_corrupt_and_invalidate;
      Alcotest.test_case "aborting an open translation restores the directory"
        `Quick test_dtb_abort_translation;
      Alcotest.test_case "checkpoint/restore/replay roundtrip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint charge ignores the copy granule" `Quick
        test_checkpoint_charge_granule;
      Alcotest.test_case "solo memo keyed on the encoding" `Quick
        test_solo_keyed_on_encoding;
      Alcotest.test_case "solo run = single-program run" `Slow
        test_solo_equals_single_program;
      QCheck_alcotest.to_alcotest prop_recovery_invariant;
      Alcotest.test_case "trigger: guard detection and retry" `Slow
        test_trigger_guard_detection;
      Alcotest.test_case "trigger: checkpoint rollback" `Slow
        test_trigger_rollback;
      Alcotest.test_case "trigger: dropped install re-translates" `Slow
        test_trigger_translator_fault;
      Alcotest.test_case "trigger: watchdog downgrade to interpretation" `Slow
        test_trigger_watchdog_downgrade;
      Alcotest.test_case "trigger: dtb tag corruption recovers" `Slow
        test_trigger_dtb_tag;
      Alcotest.test_case "campaign grid: recovery and determinism" `Slow
        test_campaign_grid;
      Alcotest.test_case "mid-install death aborts the open translation" `Slow
        test_mid_install_death_aborts;
      Alcotest.test_case "fuel guard stops a runaway program" `Quick
        test_fuel_runaway_guard;
      Alcotest.test_case "faulted goldens: every class under tagged and flush"
        `Slow (test_faulted_goldens `Decode);
      Alcotest.test_case
        "faulted goldens, threaded: the same numbers with no drop hooks"
        `Slow (test_faulted_goldens `Threaded);
      Alcotest.test_case "guards-off corruption traps instead of raising"
        `Quick test_guards_off_crash_traps;
    ] )
