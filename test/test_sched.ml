(* Tests for the multiprogramming subsystem: shared-DTB ownership
   policies (including last-translation-cache coherence across flush and
   invalidation), the quantum-to-infinity golden equalities, literal
   preempted goldens for the closed mix, the contention ordering of the policies at small quanta, SRTF completion
   order, the bounded event-trace ring, and Chrome trace export. *)

module Dtb = Uhm_core.Dtb
module Perf = Uhm_core.Perf
module Machine = Uhm_machine.Machine
module Kind = Uhm_encoding.Kind
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler
module Resilient = Uhm_fault.Resilient
module Codec = Uhm_encoding.Codec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let compile name = Suite.compile (Suite.find name)

let small_config = { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 16 }

(* the closed mix: the closed-mix driver at the zero fault config *)
let run_mix = Resilient.run ~fconfig:Resilient.zero

let install dtb ~tag =
  (match Dtb.lookup dtb ~tag with `Hit _ -> () | `Miss -> ());
  Dtb.begin_translation dtb ~tag;
  ignore (Dtb.emit dtb 1);
  ignore (Dtb.emit dtb 2);
  ignore (Dtb.end_translation dtb)

(* -- Satellite: last-translation-cache coherence ----------------------------- *)

let test_flush_clears_last_cache () =
  let dtb = Dtb.create ~last_cache:true small_config ~buffer_base:0 in
  install dtb ~tag:5;
  (* this hit is served by the last-translation cache *)
  (match Dtb.lookup dtb ~tag:5 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "freshly installed tag must hit");
  Dtb.flush dtb;
  check_int "one flush counted" 1 (Dtb.flushes dtb);
  check_int "flush empties the buffer" 0 (Dtb.resident_entries dtb);
  (* a stale last-translation cache would produce a phantom hit here *)
  (match Dtb.lookup dtb ~tag:5 with
  | `Hit _ -> Alcotest.fail "lookup after flush must miss (stale last cache)"
  | `Miss -> ());
  check_int "hits" 1 (Dtb.hits dtb);
  check_int "misses" 2 (Dtb.misses dtb)

(* Drive the same scripted tag sequence, with interleaved flushes, through
   a DTB with the last-translation cache and one without: every lookup
   must agree and all statistics must be identical.  The shortcut is an
   implementation detail, never a behaviour. *)
let test_last_cache_differential () =
  let with_lc = Dtb.create ~last_cache:true small_config ~buffer_base:0 in
  let without = Dtb.create ~last_cache:false small_config ~buffer_base:0 in
  (* deterministic tag stream with reuse (LCG), flush every 57th op *)
  let seed = ref 12345 in
  let next () =
    seed := (!seed * 1103515245 + 12345) land 0x3FFFFFFF;
    !seed mod 23
  in
  let tags = List.init 400 (fun _ -> next ()) in
  List.iteri
    (fun i tag ->
      if i mod 57 = 56 then begin
        Dtb.flush with_lc;
        Dtb.flush without
      end;
      let probe dtb =
        match Dtb.lookup dtb ~tag with
        | `Hit _ -> true
        | `Miss ->
            Dtb.begin_translation dtb ~tag;
            ignore (Dtb.emit dtb tag);
            ignore (Dtb.end_translation dtb);
            false
      in
      let a = probe with_lc and b = probe without in
      if a <> b then
        Alcotest.failf "op %d (tag %d): last-cache %s, plain %s" i tag
          (if a then "hit" else "miss")
          (if b then "hit" else "miss"))
    tags;
  check_int "hits agree" (Dtb.hits without) (Dtb.hits with_lc);
  check_int "misses agree" (Dtb.misses without) (Dtb.misses with_lc);
  check_int "evictions agree" (Dtb.evictions without) (Dtb.evictions with_lc);
  check_int "flushes agree" (Dtb.flushes without) (Dtb.flushes with_lc);
  check_int "residency agrees" (Dtb.resident_entries without)
    (Dtb.resident_entries with_lc)

let test_invalidate_asid () =
  let dtb =
    Dtb.create_shared ~policy:Dtb.Tagged ~programs:2 small_config
      ~buffer_base:0
  in
  check_int "asid 0 current initially" 0 (Dtb.current_asid dtb);
  install dtb ~tag:9;
  Dtb.switch_to dtb ~asid:1;
  (* same raw DIR address, different address space: must not alias *)
  (match Dtb.lookup dtb ~tag:9 with
  | `Hit _ -> Alcotest.fail "asid 1 must not hit asid 0's translation"
  | `Miss -> ());
  install dtb ~tag:9;
  Dtb.switch_to dtb ~asid:0;
  (match Dtb.lookup dtb ~tag:9 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "asid 0's translation must survive the switches");
  (* the lookup above just refreshed the last-translation cache; the
     invalidation must clear it or the next lookup is a stale hit *)
  check_int "one entry dropped" 1 (Dtb.invalidate_asid dtb ~asid:0);
  (match Dtb.lookup dtb ~tag:9 with
  | `Hit _ -> Alcotest.fail "invalidated entry must miss (stale last cache)"
  | `Miss -> ());
  Dtb.switch_to dtb ~asid:1;
  (match Dtb.lookup dtb ~tag:9 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "asid 1's translation must survive the invalidation");
  check_int "private DTB refuses invalidate_asid" 1
    (try
       ignore
         (Dtb.invalidate_asid (Dtb.create small_config ~buffer_base:0) ~asid:0);
       0
     with Invalid_argument _ -> 1)

(* Regression: under Flush_on_switch [asid_bits] = 0 while [current] still
   tracks the running ASID.  Folding the ASID into the key with a zero
   shift would turn the keys of adjacent DIR addresses 2k and 2k+1 into
   the same value whenever ASID 1 is current, so a lookup of 2k right
   after translating 2k+1 would falsely hit the last-translation cache
   (which compares keys only) and return the wrong buffer address. *)
let test_flush_policy_keys_not_aliased () =
  let dtb =
    Dtb.create_shared ~policy:Dtb.Flush_on_switch ~programs:2 small_config
      ~buffer_base:0
  in
  Dtb.switch_to dtb ~asid:1;
  check_int "asid 1 current" 1 (Dtb.current_asid dtb);
  install dtb ~tag:7;
  (match Dtb.lookup dtb ~tag:6 with
  | `Hit _ -> Alcotest.fail "tag 2k must not alias tag 2k+1 under ASID 1"
  | `Miss -> ());
  (match Dtb.lookup dtb ~tag:7 with
  | `Hit _ -> ()
  | `Miss -> Alcotest.fail "the installed tag itself must still hit");
  check_int "hits" 1 (Dtb.hits dtb);
  check_int "misses" 2 (Dtb.misses dtb)

(* -- Quantum-to-infinity: the mix reproduces the solo goldens ---------------- *)

let golden_mix = [ "fact_iter"; "fib_rec"; "flat_straightline" ]

let golden_outputs =
  [
    Test_golden.fact_iter_output; Test_golden.fib_rec_output;
    Test_golden.flat_straightline_output;
  ]

(* single-program cycles and DTB misses under the dtb strategy, from
   test_golden.ml's recorded numbers *)
let golden_cycles = [ 55896; 5922270; 257836 ]
let golden_misses = [ 37; 36; 3236 ]

let test_solo_quantum policy () =
  let programs = List.map (fun n -> (n, compile n)) golden_mix in
  let r =
    run_mix ~policy ~quantum:Resilient.solo_quantum ~config:Dtb.paper_config
      ~kind:Kind.Huffman programs
  in
  check_int "total cycles = sum of solo goldens"
    (List.fold_left ( + ) 0 golden_cycles)
    r.Resilient.rr_makespan;
  check_int "one dispatch per program" 3 r.Resilient.rr_switches;
  check_int "flushes"
    (match policy with Dtb.Flush_on_switch -> 2 | _ -> 0)
    r.Resilient.rr_flushes;
  List.iteri
    (fun i (pr : Resilient.program_report) ->
      let name = List.nth golden_mix i in
      check_int (name ^ " asid") i pr.Resilient.pr_asid;
      check_bool (name ^ " halted") true (pr.Resilient.pr_status = Machine.Halted);
      check_string (name ^ " output") (List.nth golden_outputs i)
        pr.Resilient.pr_output;
      check_int (name ^ " cycles = solo golden") (List.nth golden_cycles i)
        pr.Resilient.pr_cycles;
      check_int (name ^ " misses = solo golden") (List.nth golden_misses i)
        pr.Resilient.pr_dtb_misses;
      check_int (name ^ " ran in one slice") 1 pr.Resilient.pr_slices)
    r.Resilient.rr_programs

(* -- Fairness: slowdown vs a solo run ---------------------------------------- *)

let test_fairness_slowdown () =
  let programs =
    [ ("fib_a", compile "fib_rec"); ("fact", compile "fact_iter") ]
    |> List.map (fun (n, p) -> (n, Codec.encode Kind.Huffman p))
  in
  let config = { Dtb.paper_config with Dtb.sets = 32; assoc = 4 } in
  (* each program's cycles in the mix against its solo run on the mix's
     geometry *)
  let run ~policy ~quantum ~config =
    let r =
      Resilient.run_encoded ~policy ~quantum ~config ~fconfig:Resilient.zero
        programs
    in
    List.map2
      (fun (pr : Resilient.program_report) (_, e) ->
        let solo = (Resilient.solo ~config e).Resilient.sr_cycles in
        (pr, solo, Resilient.slowdown ~cycles:pr.Resilient.pr_cycles ~solo))
      r.Resilient.rr_programs programs
  in
  (* at the solo quantum and the paper geometry every program runs
     exactly as if alone, so the slowdown must be exactly 1.0 under
     every policy — no tolerance *)
  List.iter
    (fun policy ->
      List.iter
        (fun ((pr : Resilient.program_report), solo, slowdown) ->
          check_int
            (pr.Resilient.pr_name ^ ": solo denominator = own cycles")
            pr.Resilient.pr_cycles solo;
          check_bool (pr.Resilient.pr_name ^ ": slowdown exactly 1.0") true
            (slowdown = 1.0))
        (run ~policy ~quantum:Resilient.solo_quantum ~config:Dtb.paper_config))
    [ Dtb.Flush_on_switch; Dtb.Partitioned; Dtb.Tagged ];
  (* under Flush_on_switch the exactness survives any geometry: each
     program starts cold with the whole buffer, which IS the solo run *)
  List.iter
    (fun ((pr : Resilient.program_report), _, slowdown) ->
      check_bool (pr.Resilient.pr_name ^ ": flush solo-exact at tight geometry")
        true (slowdown = 1.0))
    (run ~policy:Dtb.Flush_on_switch ~quantum:Resilient.solo_quantum ~config);
  (* under Partitioned at a tight geometry the metric charges for the
     shrunken partition even without preemption *)
  check_bool "partition cost priced without preemption" true
    (List.exists
       (fun (_, _, slowdown) -> slowdown > 1.0)
       (run ~policy:Dtb.Partitioned ~quantum:Resilient.solo_quantum ~config));
  (* under contention: the denominator is quantum-independent, the ratio
     is cycles/solo, and a flushing mix can only slow programs down *)
  let run quantum = run ~policy:Dtb.Flush_on_switch ~quantum ~config in
  let contended = run 16 and solo = run Resilient.solo_quantum in
  List.iter2
    (fun ((pr : Resilient.program_report), solo_c, slowdown) (_, solo_s, _) ->
      check_int
        (pr.Resilient.pr_name ^ ": solo denominator independent of quantum")
        solo_s solo_c;
      check_bool
        (Printf.sprintf "%s: slowdown %.3f >= 1 under flushing contention"
           pr.Resilient.pr_name slowdown)
        true (slowdown >= 1.0);
      check_bool (pr.Resilient.pr_name ^ ": slowdown = cycles / solo cycles") true
        (Float.abs
           (slowdown
           -. (float_of_int pr.Resilient.pr_cycles /. float_of_int solo_c))
        < 1e-12))
    contended solo

(* -- Preempted goldens: the closed mix at q=16 -------------------------------- *)

(* Literal numbers for a preempted mix (fact_iter, gcd,
   flat_straightline at q=16, paper geometry), one row per sharing
   policy x scheduler, checked on both backends.  The closed mix, the
   solo run and Serve all slice through Tenant.slice, so the differential pins
   between them cannot see a drift there; these can.  Each row: total
   cycles, switches, flushes, evictions; per program (cycles, slices,
   misses); Trace.recorded; an MD5 of the event window. *)

let trace_event_line (e : Trace.event) =
  let k =
    match e.Trace.kind with
    | Trace.Switch { from_asid; to_asid } ->
        Printf.sprintf "switch %s %d"
          (match from_asid with Some a -> string_of_int a | None -> "-")
          to_asid
    | Trace.Dtb_flush { asid } -> Printf.sprintf "flush %d" asid
    | Trace.Translation { asid; dir_addr } ->
        Printf.sprintf "translation %d %d" asid dir_addr
    | Trace.Quantum_expiry { asid } -> Printf.sprintf "expiry %d" asid
    | Trace.Completion { asid; ok } -> Printf.sprintf "completion %d %b" asid ok
    | _ -> Alcotest.fail "unexpected event in a closed zero-fault mix"
  in
  Printf.sprintf "%d %s" e.Trace.at_cycle k

let trace_digest tr =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map trace_event_line (Trace.events tr))))

let preempted_goldens =
  [
    ( Dtb.Flush_on_switch, Scheduler.Round_robin,
      ( 2205058, 557, 556, 0,
        [ (189038, 150, 2052); (1758184, 4168, 3047); (257836, 203, 3236) ],
        13969, "1923ea697a20b3be9e3cc24796a1ae1d" ) );
    ( Dtb.Flush_on_switch, Scheduler.Shortest_remaining,
      ( 1859397, 3, 2, 2980,
        [ (55896, 150, 37); (1545665, 4168, 65); (257836, 203, 3236) ],
        7864, "dafcdf88b07046d97d33ef66307b953c" ) );
    ( Dtb.Tagged, Scheduler.Round_robin,
      ( 1877103, 557, 0, 3322,
        [ (62716, 150, 135); (1556551, 4168, 207); (257836, 203, 3236) ],
        8656, "f122ced7d7b074b0eb671c77ada5bbea" ) );
    ( Dtb.Tagged, Scheduler.Shortest_remaining,
      ( 1859397, 3, 0, 3082,
        [ (55896, 150, 37); (1545665, 4168, 65); (257836, 203, 3236) ],
        7862, "6f643d9b6d535f13562acec75073dd69" ) );
    ( Dtb.Partitioned, Scheduler.Round_robin,
      ( 2182454, 557, 0, 6904,
        [ (55896, 150, 37); (1868722, 4168, 3812); (257836, 203, 3236) ],
        12163, "50ca1ea9439ea3a95fb319d9c714aac8" ) );
    ( Dtb.Partitioned, Scheduler.Shortest_remaining,
      ( 2182454, 3, 0, 6904,
        [ (55896, 150, 37); (1868722, 4168, 3812); (257836, 203, 3236) ],
        11609, "456e9e27ff42037d241cb0b6df9403e2" ) );
  ]

let test_preempted_goldens backend () =
  let programs =
    List.map (fun n -> (n, compile n)) [ "fact_iter"; "gcd"; "flat_straightline" ]
  in
  List.iter
    (fun (policy, scheduler, (total, switches, flushes, evictions, per, recorded, digest)) ->
      let at =
        Printf.sprintf "%s/%s" (Dtb.policy_name policy)
          (Scheduler.policy_name scheduler)
      in
      let r =
        run_mix ~backend ~scheduler ~policy ~quantum:16
          ~config:Dtb.paper_config ~kind:Kind.Huffman programs
      in
      check_int (at ^ ": total cycles") total r.Resilient.rr_makespan;
      check_int (at ^ ": switches") switches r.Resilient.rr_switches;
      check_int (at ^ ": flushes") flushes r.Resilient.rr_flushes;
      check_int (at ^ ": evictions") evictions r.Resilient.rr_evictions;
      List.iter2
        (fun (cycles, slices, misses) (pr : Resilient.program_report) ->
          let at = at ^ " " ^ pr.Resilient.pr_name in
          check_bool (at ^ " halted") true (pr.Resilient.pr_status = Machine.Halted);
          check_int (at ^ " cycles") cycles pr.Resilient.pr_cycles;
          check_int (at ^ " slices") slices pr.Resilient.pr_slices;
          check_int (at ^ " misses") misses pr.Resilient.pr_dtb_misses)
        per r.Resilient.rr_programs;
      check_int (at ^ ": events recorded") recorded (Trace.recorded r.Resilient.rr_trace);
      check_string (at ^ ": event digest") digest (trace_digest r.Resilient.rr_trace))
    preempted_goldens

(* -- Small quanta: the contention ordering of the policies ------------------- *)

(* Two copies of fib_rec (so both address spaces stay live for the whole
   run and present identical raw DIR tags) at a geometry under capacity
   pressure: half the paper's sets.  Flushing retranslates the working
   set every slice; a partition is too small for the working set; tagging
   keeps everything resident with full-buffer flexibility.  See
   EXPERIMENTS.md for why other operating points order differently. *)
let test_policy_ordering () =
  let programs = [ ("fib_a", compile "fib_rec"); ("fib_b", compile "fib_rec") ] in
  let config = { Dtb.paper_config with Dtb.sets = 32; assoc = 4 } in
  let run policy =
    run_mix ~policy ~quantum:16 ~config ~kind:Kind.Huffman programs
  in
  let flush = run Dtb.Flush_on_switch in
  let tagged = run Dtb.Tagged in
  let part = run Dtb.Partitioned in
  List.iter
    (fun (r : Resilient.result) ->
      List.iter
        (fun (pr : Resilient.program_report) ->
          check_bool "halted" true (pr.Resilient.pr_status = Machine.Halted);
          check_string "output correct under contention"
            Test_golden.fib_rec_output pr.Resilient.pr_output)
        r.Resilient.rr_programs)
    [ flush; tagged; part ];
  let h (r : Resilient.result) = r.Resilient.rr_hit_ratio in
  check_bool
    (Printf.sprintf "flush (%.4f) < partitioned (%.4f)" (h flush) (h part))
    true
    (h flush +. 0.05 < h part);
  check_bool
    (Printf.sprintf "partitioned (%.4f) < tagged (%.4f)" (h part) (h tagged))
    true
    (h part +. 0.02 < h tagged);
  check_bool "flush actually flushed" true (flush.Resilient.rr_flushes > 1000);
  check_int "tagged never flushes" 0 tagged.Resilient.rr_flushes

(* -- Scheduling policies ----------------------------------------------------- *)

let completions (r : Resilient.result) =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Completion { asid; ok } -> Some (asid, ok)
      | _ -> None)
    (Trace.events r.Resilient.rr_trace)

let test_srtf_completion_order () =
  (* dir_steps: fib_rec 240744 >> flat_straightline 3236 > fact_iter 2395;
     SRTF must finish them in ascending order regardless of ASID order *)
  let programs =
    List.map (fun n -> (n, compile n))
      [ "fib_rec"; "fact_iter"; "flat_straightline" ]
  in
  let r =
    run_mix ~scheduler:Scheduler.Shortest_remaining ~policy:Dtb.Tagged
      ~quantum:64 ~config:Dtb.paper_config ~kind:Kind.Huffman programs
  in
  Alcotest.(check (list (pair int bool)))
    "SRTF completion order = ascending dir_steps"
    [ (1, true); (2, true); (0, true) ]
    (completions r);
  (* round-robin interleaves, so the long program still finishes last but
     the two short ones finish in ASID order *)
  let rr =
    run_mix ~scheduler:Scheduler.Round_robin ~policy:Dtb.Tagged ~quantum:64
      ~config:Dtb.paper_config ~kind:Kind.Huffman programs
  in
  Alcotest.(check (list (pair int bool)))
    "round-robin completion order"
    [ (1, true); (2, true); (0, true) ]
    (completions rr);
  (* contention differs with the interleaving, but the work does not *)
  List.iter2
    (fun (a : Resilient.program_report) (b : Resilient.program_report) ->
      check_int "same DIR steps under either scheduler" a.Resilient.pr_dir_steps
        b.Resilient.pr_dir_steps;
      check_string "same output under either scheduler" a.Resilient.pr_output
        b.Resilient.pr_output)
    r.Resilient.rr_programs rr.Resilient.rr_programs

(* -- The event-trace ring ---------------------------------------------------- *)

let test_trace_ring_bounded () =
  let programs =
    [ ("fact_a", compile "fact_iter"); ("fact_b", compile "fact_iter") ]
  in
  let r =
    run_mix ~trace_capacity:32 ~policy:Dtb.Tagged ~quantum:16
      ~config:Dtb.paper_config ~kind:Kind.Huffman programs
  in
  let tr = r.Resilient.rr_trace in
  check_int "ring capacity" 32 (Trace.capacity tr);
  check_bool "events were dropped" true (Trace.dropped tr > 0);
  check_int "window is exactly the capacity" 32 (List.length (Trace.events tr));
  check_int "recorded = dropped + window"
    (Trace.recorded tr)
    (Trace.dropped tr + List.length (Trace.events tr));
  let cycles = List.map (fun (e : Trace.event) -> e.Trace.at_cycle) (Trace.events tr) in
  check_bool "event cycles are monotone" true
    (List.for_all2 ( <= ) cycles (List.tl cycles @ [ max_int ]));
  (* rollups are maintained on every record, not just the buffered window *)
  let dispatches =
    List.fold_left
      (fun acc (_, c) -> acc + c.Trace.c_dispatches)
      0 (Trace.tallies tr)
  in
  check_int "tallied dispatches = switches (exact despite drops)"
    r.Resilient.rr_switches dispatches;
  check_bool "far more switches than the ring holds" true (r.Resilient.rr_switches > 64)

(* -- Chrome trace export ----------------------------------------------------- *)

let test_chrome_export () =
  let names = [| "fact_iter"; "flat_straightline" |] in
  let programs =
    Array.to_list (Array.map (fun n -> (n, compile n)) names)
  in
  let r =
    run_mix ~policy:Dtb.Flush_on_switch ~quantum:64 ~config:Dtb.paper_config
      ~kind:Kind.Huffman programs
  in
  let doc =
    Trace.to_chrome
      ~names:(fun asid -> names.(asid))
      ~end_cycle:r.Resilient.rr_makespan r.Resilient.rr_trace
  in
  match Perf.parse_json doc with
  | exception Failure m -> Alcotest.failf "export is not valid JSON: %s" m
  | Perf.J_arr events ->
      check_bool "non-empty" true (events <> []);
      let phases = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          match ev with
          | Perf.J_obj fields ->
              let str k =
                match List.assoc_opt k fields with
                | Some (Perf.J_str s) -> Some s
                | _ -> None
              in
              let num k =
                match List.assoc_opt k fields with
                | Some (Perf.J_num _) -> true
                | _ -> false
              in
              let ph =
                match str "ph" with
                | Some p -> p
                | None -> Alcotest.fail "event without ph"
              in
              Hashtbl.replace phases ph ();
              check_bool "known phase" true (List.mem ph [ "X"; "i"; "M" ]);
              check_bool "has a name" true (str "name" <> None);
              check_bool "has a pid" true (num "pid");
              if ph = "X" then begin
                check_bool "slice has ts" true (num "ts");
                check_bool "slice has dur" true (num "dur")
              end;
              if ph = "i" then check_bool "instant has ts" true (num "ts")
          | _ -> Alcotest.fail "trace event is not an object")
        events;
      List.iter
        (fun ph ->
          check_bool (Printf.sprintf "at least one %S event" ph) true
            (Hashtbl.mem phases ph))
        [ "X"; "i"; "M" ]
  | _ -> Alcotest.fail "export must be a JSON array"

(* -- Argument validation ----------------------------------------------------- *)

let test_validation () =
  let one = [ ("fact_iter", compile "fact_iter") ] in
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "quantum 0" (fun () ->
      run_mix ~policy:Dtb.Tagged ~quantum:0 ~config:Dtb.paper_config
        ~kind:Kind.Huffman one);
  expect_invalid "no programs" (fun () ->
      run_mix ~policy:Dtb.Tagged ~quantum:16 ~config:Dtb.paper_config
        ~kind:Kind.Huffman []);
  expect_invalid "partitions wider than the sets" (fun () ->
      ignore
        (Dtb.create_shared ~policy:Dtb.Partitioned ~programs:16
           { small_config with Dtb.sets = 8 }
           ~buffer_base:0))

let suite =
  ( "sched",
    [
      Alcotest.test_case "flush clears the last-translation cache" `Quick
        test_flush_clears_last_cache;
      Alcotest.test_case "last-cache differential under flushes" `Quick
        test_last_cache_differential;
      Alcotest.test_case "invalidate_asid drops entries and the last cache"
        `Quick test_invalidate_asid;
      Alcotest.test_case "Flush_on_switch keys never alias adjacent tags"
        `Quick test_flush_policy_keys_not_aliased;
      Alcotest.test_case "quantum=inf reproduces solo goldens (flush)" `Slow
        (test_solo_quantum Dtb.Flush_on_switch);
      Alcotest.test_case "quantum=inf reproduces solo goldens (tagged)" `Slow
        (test_solo_quantum Dtb.Tagged);
      Alcotest.test_case "quantum=inf reproduces solo goldens (partitioned)"
        `Slow
        (test_solo_quantum Dtb.Partitioned);
      Alcotest.test_case "preempted goldens at q=16 (decode)" `Slow
        (test_preempted_goldens `Decode);
      Alcotest.test_case "preempted goldens at q=16 (threaded)" `Slow
        (test_preempted_goldens `Threaded);
      Alcotest.test_case "fairness: slowdown vs solo run" `Slow
        test_fairness_slowdown;
      Alcotest.test_case "hit-ratio ordering flush < partitioned < tagged"
        `Slow test_policy_ordering;
      Alcotest.test_case "SRTF completes in ascending remaining work" `Slow
        test_srtf_completion_order;
      Alcotest.test_case "trace ring is bounded, rollups exact" `Quick
        test_trace_ring_bounded;
      Alcotest.test_case "Chrome trace export is valid" `Quick
        test_chrome_export;
      Alcotest.test_case "argument validation" `Quick test_validation;
    ] )
