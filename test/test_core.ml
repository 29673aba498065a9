(* Tests for the core contribution: the DTB, the trace-driven DTB
   simulation, the five execution strategies, locality statistics, and the
   analytic model of paper §7. *)

module Dtb = Uhm_core.Dtb
module Dtb_sim = Uhm_core.Dtb_sim
module U = Uhm_core.Uhm
module Experiment = Uhm_core.Experiment
module Machine = Uhm_machine.Machine
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Model = Uhm_perfmodel.Model
module Suite = Uhm_workload.Suite
module Locality = Uhm_workload.Locality
module Tracegen = Uhm_workload.Tracegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- DTB unit tests ----------------------------------------------------------- *)

let small_config = { Dtb.sets = 4; assoc = 2; unit_words = 4; overflow_blocks = 8 }

let install dtb tag words =
  Dtb.begin_translation dtb ~tag;
  List.iter (fun w -> ignore (Dtb.emit dtb w)) words;
  Dtb.end_translation dtb

let test_dtb_hit_after_install () =
  let dtb = Dtb.create small_config ~buffer_base:1000 in
  check_bool "initial miss" true (Dtb.lookup dtb ~tag:64 = `Miss);
  let addr = install dtb 64 [ 1; 2; 3 ] in
  (match Dtb.lookup dtb ~tag:64 with
  | `Hit a -> check_int "hit address" addr a
  | `Miss -> Alcotest.fail "expected hit");
  check_int "hits" 1 (Dtb.hits dtb);
  check_int "misses" 1 (Dtb.misses dtb)

let test_dtb_lru_within_set () =
  let dtb = Dtb.create { small_config with Dtb.sets = 1 } ~buffer_base:0 in
  (* assoc 2, single set: installing three tags evicts the LRU *)
  ignore (Dtb.lookup dtb ~tag:1);
  ignore (install dtb 1 [ 0 ]);
  ignore (Dtb.lookup dtb ~tag:2);
  ignore (install dtb 2 [ 0 ]);
  ignore (Dtb.lookup dtb ~tag:1);                (* 1 becomes MRU *)
  ignore (Dtb.lookup dtb ~tag:3);
  ignore (install dtb 3 [ 0 ]);                  (* evicts 2 *)
  check_bool "1 still resident" true (Dtb.lookup dtb ~tag:1 <> `Miss);
  check_bool "2 evicted" true (Dtb.lookup dtb ~tag:2 = `Miss);
  check_int "evictions" 1 (Dtb.evictions dtb)

let test_dtb_overflow_chaining () =
  let dtb = Dtb.create small_config ~buffer_base:0 in
  Dtb.begin_translation dtb ~tag:7;
  (* unit_words = 4 -> payload 3 per block; 5 words need one overflow block *)
  let writes =
    List.init 5 (fun i ->
        let addr = Dtb.emit dtb i in
        (addr, Dtb.chain_slot dtb))
  in
  let start = Dtb.end_translation dtb in
  check_int "overflow blocks used" 1 (Dtb.overflow_allocations dtb);
  let chains = List.filter (fun (_, slot) -> slot >= 0) writes in
  check_int "one chain word written" 1 (List.length chains);
  (* the fourth word opens the overflow block; the chain word linking it
     sits at the old block's last slot *)
  let fourth_addr, slot = List.nth writes 3 in
  check_int "chain word at the old block's last slot"
    (start + small_config.Dtb.unit_words - 1) slot;
  let overflow_base =
    small_config.Dtb.sets * small_config.Dtb.assoc * small_config.Dtb.unit_words
  in
  check_int "chained payload address: the overflow block's first slot"
    overflow_base fourth_addr;
  check_int "fifth word follows it" (fourth_addr + 1) (fst (List.nth writes 4))

(* The chain word the machine writes is a [Goto] to the block [Dtb.emit]
   just opened: every buffer word written at a block's reserved last slot
   is one, pointing at the word written just before it, and there is one
   per overflow block. *)
let test_dtb_chain_words_are_gotos () =
  let module SF = Uhm_machine.Short_format in
  let module R = Uhm_machine.Host_isa.Regs in
  let layout = Uhm_psder.Layout.default in
  let cfg = Dtb.paper_config in
  let base = layout.Uhm_psder.Layout.dtb_buffer_base + 1 in
  let dtb = Dtb.create cfg ~buffer_base:base in
  let writes = ref [] in
  let make_interp ~translator_entry m ~dir_addr ~dctx =
    let a = Dtb.lookup_addr dtb ~tag:dir_addr in
    if a >= 0 then Machine.set_short_pc m a
    else begin
      Dtb.begin_translation dtb ~tag:dir_addr;
      Machine.set_reg m R.dpc dir_addr;
      Machine.set_reg m R.dctx dctx;
      Machine.set_pc m (Machine.Long translator_entry)
    end
  in
  let m, _ =
    U.prepare_dtb_custom ~layout
      ~on_emit:(fun ~addr ~word -> writes := (addr, word) :: !writes)
      ~make_interp ~dtb
      (Codec.encode Kind.Huffman (Suite.compile (Suite.find "fib_rec")))
  in
  check_bool "halts" true (Machine.run m = Machine.Halted);
  check_bool "some translation overflowed" true
    (Dtb.overflow_allocations dtb > 0);
  let rec links acc = function
    | (slot, word) :: ((prev, _) :: _ as rest)
      when (slot - base) mod cfg.Dtb.unit_words = cfg.Dtb.unit_words - 1 ->
        check_bool "chain word is Goto to the new block" true
          (SF.unpack word = (SF.Goto, 0, prev));
        links (acc + 1) rest
    | _ :: rest -> links acc rest
    | [] -> acc
  in
  check_int "one chain word per overflow block"
    (Dtb.overflow_allocations dtb) (links 0 !writes)

(* Installing translations allocates nothing: victim choice, emission,
   overflow chaining and chain release on eviction all reuse the DTB's
   own arrays. *)
let test_dtb_emit_allocates_nothing () =
  let dtb = Dtb.create small_config ~buffer_base:0 in
  let emitted = ref 0 in
  let install_all () =
    for tag = 0 to 999 do
      Dtb.begin_translation dtb ~tag;
      (* five words: one overflow chain per translation *)
      for w = 0 to 4 do
        ignore (Sys.opaque_identity (Dtb.emit dtb w));
        incr emitted
      done;
      ignore (Sys.opaque_identity (Dtb.end_translation dtb))
    done
  in
  install_all ();
  emitted := 0;
  let before = Gc.minor_words () in
  install_all ();
  let per = (Gc.minor_words () -. before) /. float_of_int !emitted in
  check_bool "overflow chains were linked" true
    (Dtb.overflow_allocations dtb >= 2000);
  check_bool
    (Printf.sprintf "%.3f minor words per emitted word < 0.5" per)
    true (per < 0.5)

let test_dtb_eviction_releases_chain () =
  let dtb =
    Dtb.create { Dtb.sets = 1; assoc = 1; unit_words = 4; overflow_blocks = 1 }
      ~buffer_base:0
  in
  ignore (install dtb 1 [ 0; 1; 2; 3; 4 ]);   (* uses the only overflow block *)
  check_int "one overflow alloc" 1 (Dtb.overflow_allocations dtb);
  (* evicting tag 1 must return the block for reuse *)
  ignore (install dtb 2 [ 0; 1; 2; 3; 4 ]);
  check_int "two overflow allocs" 2 (Dtb.overflow_allocations dtb)

let test_dtb_overflow_exhaustion () =
  let dtb =
    Dtb.create { Dtb.sets = 1; assoc = 2; unit_words = 4; overflow_blocks = 0 }
      ~buffer_base:0
  in
  Dtb.begin_translation dtb ~tag:5;
  ignore (Dtb.emit dtb 0);
  ignore (Dtb.emit dtb 1);
  ignore (Dtb.emit dtb 2);
  Alcotest.check_raises "exhausted"
    (Failure "Dtb.emit: overflow area exhausted") (fun () ->
      ignore (Dtb.emit dtb 3))

let test_dtb_last_cache_differential () =
  (* Same operation sequence against a DTB with and without the
     single-entry last-translation cache: lookup results and statistics
     must be indistinguishable, and the counts are pinned so the fast
     path cannot silently change what a hit or an eviction means.

     With 4 sets (set = tag land 3 for small tags), tags 5/13/21 collide
     in set 1; the sequence exercises the fresh-install fast path,
     re-hit after an intervening miss, eviction of the cached tag, and
     the re-miss after eviction. *)
  let seq = [ 5; 5; 5; 6; 5; 5; 13; 21; 5 ] in
  let run last_cache =
    let dtb = Dtb.create ~last_cache small_config ~buffer_base:0 in
    let log =
      List.map
        (fun tag ->
          match Dtb.lookup dtb ~tag with
          | `Hit addr -> `Hit addr
          | `Miss ->
              ignore (install dtb tag [ tag; tag + 1 ]);
              `Miss)
        seq
    in
    (log, Dtb.hits dtb, Dtb.misses dtb, Dtb.evictions dtb)
  in
  let log_ref, h_ref, m_ref, e_ref = run false in
  let log_fast, h_fast, m_fast, e_fast = run true in
  check_bool "lookup outcomes identical" true (log_ref = log_fast);
  check_int "hits (reference)" 4 h_ref;
  check_int "misses (reference)" 5 m_ref;
  check_int "evictions (reference)" 2 e_ref;
  check_int "hits (last cache)" h_ref h_fast;
  check_int "misses (last cache)" m_ref m_fast;
  check_int "evictions (last cache)" e_ref e_fast

let test_dtb_full_assoc_beats_direct_on_conflicts () =
  (* a trace alternating between tags that collide in a direct-mapped DTB *)
  let run config =
    let dtb = Dtb.create config ~buffer_base:0 in
    for _ = 1 to 50 do
      List.iter
        (fun tag ->
          match Dtb.lookup dtb ~tag with
          | `Hit _ -> ()
          | `Miss -> ignore (install dtb tag [ 0 ]))
        [ 0; 1024; 2048 ]
    done;
    Dtb.hit_ratio dtb
  in
  let direct = run { Dtb.sets = 4; assoc = 1; unit_words = 4; overflow_blocks = 0 } in
  let full = run { Dtb.sets = 1; assoc = 4; unit_words = 4; overflow_blocks = 0 } in
  check_bool
    (Printf.sprintf "full %.2f > direct %.2f" full direct)
    true (full > direct)

(* -- Trace-driven DTB simulation vs the full machine -------------------------- *)

let test_dtb_sim_matches_machine () =
  List.iter
    (fun name ->
      let p = Suite.compile (Suite.find name) in
      let encoded = Codec.encode Kind.Packed p in
      let sim = Dtb_sim.replay_encoded ~config:Dtb.paper_config encoded in
      let machine_run =
        U.run_encoded ~strategy:(U.Dtb_strategy Dtb.paper_config) encoded
      in
      let machine_ratio = Option.get machine_run.U.dtb_hit_ratio in
      Alcotest.(check (float 1e-9))
        (name ^ ": hit ratios agree")
        machine_ratio sim.Dtb_sim.hit_ratio;
      check_int
        (name ^ ": misses agree")
        (Option.get machine_run.U.dtb_misses)
        sim.Dtb_sim.misses)
    [ "fact_iter"; "fib_rec"; "collatz" ]

(* -- Strategy differential over the suite -------------------------------------- *)

let outputs_equal_for name =
  let entry = Suite.find name in
  let p = Suite.compile entry in
  let expected = Uhm_dir.Interp.run_output p in
  let strategies =
    [ U.Interp; U.Cached 4096; U.Dtb_strategy Dtb.paper_config;
      U.Psder_static; U.Der U.Der_level1; U.Der U.Der_level2 ]
  in
  List.iter
    (fun strategy ->
      let kinds =
        match strategy with
        | U.Interp | U.Cached _ | U.Dtb_strategy _ -> Kind.all
        | _ -> [ Kind.Packed ]
      in
      List.iter
        (fun kind ->
          let r = U.run ~strategy ~kind p in
          (match r.U.status with
          | Machine.Halted -> ()
          | Machine.Trapped m ->
              Alcotest.failf "%s/%s/%s trapped: %s" name
                (U.strategy_name strategy) (Kind.name kind) m
          | _ ->
              Alcotest.failf "%s/%s/%s did not halt" name
                (U.strategy_name strategy) (Kind.name kind));
          if not (String.equal r.U.output expected) then
            Alcotest.failf "%s/%s/%s output differs" name
              (U.strategy_name strategy) (Kind.name kind))
        kinds)
    strategies

let test_strategies_differential () =
  List.iter outputs_equal_for [ "fact_iter"; "nested_scopes"; "string_out" ]

let test_dtb_beats_interp_on_loops () =
  let p = Suite.compile (Suite.find "loop_tight") in
  let interp = U.run ~strategy:U.Interp ~kind:Kind.Huffman p in
  let dtb =
    U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Huffman p
  in
  check_bool
    (Printf.sprintf "dtb %d < interp %d" dtb.U.cycles interp.U.cycles)
    true
    (dtb.U.cycles < interp.U.cycles);
  check_bool "hit ratio near 1" true (Option.get dtb.U.dtb_hit_ratio > 0.99)

let test_block_translation_agrees_and_wins () =
  let block_cfg =
    { Dtb.sets = 32; assoc = 4; unit_words = 16; overflow_blocks = 256 }
  in
  List.iter
    (fun name ->
      let p = Suite.compile ~fuse:true (Suite.find name) in
      let expected = Uhm_dir.Interp.run_output p in
      let per = U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Huffman p in
      let blk = U.run ~strategy:(U.Dtb_blocks (block_cfg, 8)) ~kind:Kind.Huffman p in
      Alcotest.(check string) (name ^ ": block output") expected blk.U.output;
      check_bool (name ^ ": blocks not slower") true (blk.U.cycles <= per.U.cycles);
      check_bool (name ^ ": fewer INTERPs") true
        (blk.U.machine_stats.Machine.interp_count
        < per.U.machine_stats.Machine.interp_count))
    [ "fact_iter"; "quicksort"; "collatz" ]

let test_decode_assist_agrees_and_helps () =
  let p = Suite.compile (Suite.find "gcd") in
  let expected = Uhm_dir.Interp.run_output p in
  let plain = U.run ~strategy:U.Interp ~kind:Kind.Huffman p in
  let assist = U.run ~decode_assist:true ~strategy:U.Interp ~kind:Kind.Huffman p in
  Alcotest.(check string) "assist output" expected assist.U.output;
  check_bool "assist cuts decode time" true
    (assist.U.cycles < plain.U.cycles);
  let dtb =
    U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Huffman p
  in
  check_bool "dtb still beats assisted interpreter" true
    (dtb.U.cycles < assist.U.cycles)

let test_two_level_translation () =
  (* with a thrashing L1, the decoded store must agree and win *)
  let small = { Dtb.sets = 8; assoc = 4; unit_words = 4; overflow_blocks = 64 } in
  List.iter
    (fun name ->
      let p = Suite.compile (Suite.find name) in
      let expected = Uhm_dir.Interp.run_output p in
      let l1 = U.run ~strategy:(U.Dtb_strategy small) ~kind:Kind.Digram p in
      let l2 = U.run ~strategy:(U.Dtb_two_level (small, 2048)) ~kind:Kind.Digram p in
      Alcotest.(check string) (name ^ ": two-level output") expected l2.U.output;
      check_bool (name ^ ": two-level faster under L1 thrash") true
        (l2.U.cycles < l1.U.cycles);
      check_bool (name ^ ": L2 hit ratio meaningful") true
        (Option.get l2.U.dtb_l2_hit_ratio > 0.5))
    [ "quicksort"; "dispatch" ]

let test_compound_datapath_agrees_and_helps () =
  let p = Suite.compile (Suite.find "binsearch") in
  let expected = Uhm_dir.Interp.run_output p in
  let run compound =
    U.run ~compound_datapath:compound ~strategy:(U.Dtb_strategy Dtb.paper_config)
      ~kind:Kind.Packed p
  in
  let plain = run false and compound = run true in
  Alcotest.(check string) "compound output" expected compound.U.output;
  check_bool "compound is faster" true (compound.U.cycles < plain.U.cycles)

let test_b1700_restricted_kind () =
  let p = Suite.compile (Suite.find "sieve") in
  let expected = Uhm_dir.Interp.run_output p in
  let r = U.run ~strategy:U.Interp ~kind:Kind.Huffman_b1700 p in
  Alcotest.(check string) "b1700 output" expected r.U.output;
  let free = (Codec.encode Kind.Huffman p).Codec.size_bits in
  let restricted = (Codec.encode Kind.Huffman_b1700 p).Codec.size_bits in
  let word16 = (Codec.encode Kind.Word16 p).Codec.size_bits in
  check_bool "restricted within 15% of free huffman" true
    (float_of_int restricted <= 1.15 *. float_of_int free);
  check_bool "restricted far below word16" true (2 * restricted < word16)

let test_der_l1_is_fastest () =
  let p = Suite.compile (Suite.find "fact_iter") in
  let der = U.run ~strategy:(U.Der U.Der_level1) ~kind:Kind.Packed p in
  let dtb =
    U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Packed p
  in
  check_bool "der-l1 fastest" true (der.U.cycles < dtb.U.cycles)

let test_figure1_shape () =
  (* the representation-space claims, asserted on total cycles *)
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let points =
        Experiment.figure1_points ~name (Suite.parse entry)
      in
      let find label =
        List.find (fun pt -> String.equal pt.Experiment.sp_label label) points
      in
      let der_l1 = find "der (fast store)" in
      let der_l2 = find "der (level 2)" in
      let base k = find ("dir/" ^ k) in
      let fused k = find ("dir+superops/" ^ k) in
      (* DER is fastest in the fast store, but loses it exiled to level 2 *)
      List.iter
        (fun pt ->
          if pt != der_l1 then
            check_bool
              (name ^ ": der-l1 fastest vs " ^ pt.Experiment.sp_label)
              true
              (der_l1.Experiment.sp_total_cycles < pt.Experiment.sp_total_cycles))
        points;
      (* exiled to level 2, the expanded code loses its speed advantage
         wholesale (the paper's case for not expanding) *)
      check_bool (name ^ ": der-l2 at least 5x slower than der-l1") true
        (der_l2.Experiment.sp_total_cycles
        > 5 * der_l1.Experiment.sp_total_cycles);
      (* encoding monotonically shrinks the program *)
      let size k = (base k).Experiment.sp_size_bits in
      check_bool (name ^ ": packed < word16") true (size "packed" < size "word16");
      check_bool (name ^ ": huffman < packed") true (size "huffman" < size "packed");
      check_bool (name ^ ": digram < huffman") true (size "digram" < size "huffman");
      (* superoperators improve both axes at every encoding *)
      List.iter
        (fun k ->
          check_bool (name ^ "/" ^ k ^ ": fusion shrinks") true
            ((fused k).Experiment.sp_size_bits <= (base k).Experiment.sp_size_bits);
          check_bool (name ^ "/" ^ k ^ ": fusion speeds up") true
            ((fused k).Experiment.sp_total_cycles
            < (base k).Experiment.sp_total_cycles))
        [ "word16"; "packed"; "huffman"; "digram" ])
    [ "fact_iter"; "gcd" ]

let test_space_time_shape () =
  (* the headline qualitative claims on a loopy program *)
  let p = Suite.compile (Suite.find "fact_iter") in
  let size kind = (Codec.encode kind p).Codec.size_bits in
  check_bool "huffman smaller than word16" true
    (size Kind.Huffman < size Kind.Word16);
  let interp kind = (U.run ~strategy:U.Interp ~kind p).U.cycles in
  check_bool "huffman interpretation slower than packed" true
    (interp Kind.Huffman > interp Kind.Packed)

let prop_machine_differential =
  QCheck.Test.make ~name:"machine strategies match the HLR semantics"
    ~count:30 Gen_program.valid_program
    (fun ast ->
      let reference = Uhm_hlr.Env_interp.run ~fuel:150_000 (Uhm_hlr.Check.check_exn ast) in
      match reference.Uhm_hlr.Env_interp.status with
      | Uhm_hlr.Env_interp.Out_of_fuel -> true (* skip oversized cases *)
      | Uhm_hlr.Env_interp.Trapped _ -> false
      | Uhm_hlr.Env_interp.Halted ->
      let expected = reference.Uhm_hlr.Env_interp.output in
      let p = Uhm_compiler.Pipeline.compile ~fuse:true ast in
      List.for_all
        (fun (strategy, kind) ->
          let r = U.run ~strategy ~kind p in
          match r.U.status with
          | Machine.Halted -> String.equal r.U.output expected
          | _ -> false)
        [
          (U.Interp, Kind.Digram);
          (U.Dtb_strategy Dtb.paper_config, Kind.Contextual);
          (U.Psder_static, Kind.Packed);
          (U.Der U.Der_level1, Kind.Packed);
        ])

(* -- Locality and trace generation --------------------------------------------- *)

let test_locality_basics () =
  let trace = [| 1; 2; 1; 2; 1; 2; 3 |] in
  check_int "footprint" 3 (Locality.footprint trace);
  let d = Locality.reuse_distances trace in
  Alcotest.(check (array int)) "reuse distances" [| 1; 1; 1; 1 |] d;
  Alcotest.(check (float 1e-9)) "hit ratio cap 2"
    (4. /. 7.)
    (Locality.hit_ratio_for_capacity ~capacity:2 trace)

let test_locality_monotone_in_capacity () =
  let trace = Tracegen.generate { Tracegen.default with Tracegen.length = 5_000 } in
  let h c = Locality.hit_ratio_for_capacity ~capacity:c trace in
  check_bool "monotone" true (h 4 <= h 16 && h 16 <= h 64 && h 64 <= h 256)

let test_tracegen_deterministic () =
  let cfg = { Tracegen.default with Tracegen.length = 1000 } in
  Alcotest.(check bool) "same seed, same trace" true
    (Tracegen.generate cfg = Tracegen.generate cfg);
  Alcotest.(check bool) "different seed, different trace" true
    (Tracegen.generate cfg <> Tracegen.generate { cfg with Tracegen.seed = 7 })

let test_tracegen_locality_effect () =
  let hit locality =
    let cfg =
      { Tracegen.default with Tracegen.locality; length = 20_000; seed = 3 }
    in
    Locality.hit_ratio_for_capacity ~capacity:64 (Tracegen.generate cfg)
  in
  check_bool "locality raises hit ratio" true (hit 0.99 > hit 0.5 +. 0.05)

let test_suite_traces_are_local () =
  (* the principle of locality on a real workload: a 256-entry window
     captures the overwhelming majority of references *)
  let p = Suite.compile (Suite.find "sieve") in
  let trace = Locality.trace_of_program p in
  check_bool "sieve is local" true
    (Locality.hit_ratio_for_capacity ~capacity:256 trace > 0.95)

(* -- Analytic model -------------------------------------------------------------- *)

let check_grid name expected actual =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if Float.abs (v -. actual.(i).(j)) > 0.011 then
            Alcotest.failf "%s[%d][%d]: paper %.2f vs regenerated %.2f" name i
              j v
              actual.(i).(j))
        row)
    expected

let test_paper_table2_exact () =
  check_grid "table2" Model.paper_table2 (Model.regenerate_table2 ())

let test_paper_table3_exact () =
  check_grid "table3" Model.paper_table3 (Model.regenerate_table3 ())

let test_model_shapes () =
  let p = Model.paper_defaults ~d:10. ~x:5. in
  check_bool "T2 < T1 at favourable params" true (Model.t2 p < Model.t1 p);
  check_bool "T3 < T1 (a cache always helps here)" true (Model.t3 p < Model.t1 p);
  check_bool "F2 positive" true (Model.f2 p > 0.);
  (* the DTB matters less as semantics dominate (paper's closing remark) *)
  let f2_at x = Model.f2 (Model.paper_defaults ~d:10. ~x) in
  check_bool "F2 decreasing in x" true (f2_at 30. < f2_at 5.)

let test_calibration_sane () =
  let p = Suite.compile (Suite.find "fact_iter") in
  let m = Experiment.measure ~kind:Kind.Huffman ~name:"fact_iter" p in
  let c = Experiment.calibrate m in
  check_bool "d in a plausible range" true
    (c.Experiment.c_d > 3. && c.Experiment.c_d < 120.);
  check_bool "x positive" true (c.Experiment.c_x > 3.);
  check_bool "g positive" true (c.Experiment.c_g > 3.);
  check_bool "s1 around the paper's 3" true
    (c.Experiment.c_s1 > 1.5 && c.Experiment.c_s1 < 8.);
  check_bool "hit ratios in range" true
    (c.Experiment.c_h_d > 0.5 && c.Experiment.c_h_d <= 1.
    && c.Experiment.c_h_c > 0.5
    && c.Experiment.c_h_c <= 1.)

let test_dtb_sweep_monotone_capacity () =
  let p = Suite.compile (Suite.find "quicksort") in
  let points =
    Experiment.dtb_sweep ~kind:Kind.Packed
      ~configs:(Experiment.capacity_configs ())
      p
  in
  let ratios = List.map (fun pt -> pt.Experiment.dp_hit_ratio) points in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  check_bool "hit ratio non-decreasing in capacity" true (monotone ratios)

let test_assoc_four_way_near_full () =
  (* paper §5.2: "set associativity of degree 4 has been found to be nearly
     as effective as full associativity" *)
  let p = Suite.compile (Suite.find "dispatch") in
  let points =
    Experiment.dtb_sweep ~kind:Kind.Packed
      ~configs:(Experiment.assoc_configs ())
      p
  in
  let ratio_of assoc =
    (List.find (fun pt -> pt.Experiment.dp_config.Dtb.assoc = assoc) points)
      .Experiment.dp_hit_ratio
  in
  check_bool "4-way within 3% of full" true
    (Float.abs (ratio_of 4 -. ratio_of 256) < 0.03)

(* Differential reference for the DTB's replacement array: the seed's
   per-set counter LRU, kept verbatim so the timestamp-based recency is
   pinned to the identical hit/miss/eviction sequence. *)
module Dtb_counter_ref = struct
  type entry = { mutable tag : int; mutable lru : int }
  type t = { sets : int; ways : entry array array }

  let create ~sets ~assoc =
    let assoc = if assoc = 0 then sets else assoc in
    { sets; ways = Array.init sets (fun _ -> Array.init assoc (fun w -> { tag = -1; lru = w })) }

  let set_of t tag = (tag lxor (tag lsr 7)) land (t.sets - 1)

  let touch ways way =
    let old = ways.(way).lru in
    Array.iter (fun e -> if e.lru < old then e.lru <- e.lru + 1) ways;
    ways.(way).lru <- 0

  (* lookup + install-on-miss, exactly as the seed's lookup/begin_translation *)
  let access t tag =
    let ways = t.ways.(set_of t tag) in
    let rec find w =
      if w >= Array.length ways then None
      else if ways.(w).tag = tag then Some w
      else find (w + 1)
    in
    match find 0 with
    | Some w ->
        touch ways w;
        `Hit
    | None ->
        let victim = ref 0 in
        Array.iteri
          (fun w e -> if e.lru > ways.(!victim).lru then victim := w)
          ways;
        ways.(!victim).tag <- tag;
        touch ways !victim;
        `Miss
end

let prop_dtb_recency_matches_counter_lru =
  let gen =
    QCheck.Gen.(
      oneofl [ (1, 2); (1, 4); (4, 2); (4, 0); (8, 1) ]
      >>= fun (sets, assoc) ->
      list_size (int_range 1 300) (int_bound 200)
      >>= fun tags -> return (sets, assoc, tags))
  in
  QCheck.Test.make
    ~name:"dtb timestamp recency = counter LRU (hit/miss sequence)" ~count:200
    (QCheck.make
       ~print:(fun (s, a, tags) ->
         Printf.sprintf "sets=%d assoc=%d [%s]" s a
           (String.concat ";" (List.map string_of_int tags)))
       gen)
    (fun (sets, assoc, tags) ->
      let cfg = { Dtb.sets; assoc; unit_words = 4; overflow_blocks = 0 } in
      let dtb = Dtb.create cfg ~buffer_base:0 in
      let reference = Dtb_counter_ref.create ~sets ~assoc in
      List.for_all
        (fun tag ->
          let actual =
            match Dtb.lookup dtb ~tag with
            | `Hit _ -> `Hit
            | `Miss ->
                Dtb.begin_translation dtb ~tag;
                ignore (Dtb.end_translation dtb);
                `Miss
          in
          actual = Dtb_counter_ref.access reference tag)
        tags)

(* [Dtb.lookup] and [Dtb.lookup_addr] are one probe: over a random stream
   of (ASID, tag) references, installing on every miss, a DTB driven by
   either — private or shared under each policy, with the last-translation
   cache on or off — answers the same addresses and ends with the same
   hits, misses and evictions. *)
let prop_dtb_lookup_addr_matches_lookup =
  let cfg = { Dtb.sets = 4; assoc = 2; unit_words = 4; overflow_blocks = 16 } in
  let policies = [ None; Some Dtb.Flush_on_switch; Some Dtb.Tagged;
                   Some Dtb.Partitioned ] in
  let gen =
    QCheck.Gen.(
      pair (oneofl policies)
        (list_size (int_range 1 300)
           (triple (int_bound 2) (int_bound 40) (int_range 1 5))))
  in
  let print (policy, refs) =
    Printf.sprintf "%s [%s]"
      (match policy with None -> "private" | Some p -> Dtb.policy_name p)
      (String.concat ";"
         (List.map (fun (a, t, n) -> Printf.sprintf "%d/%d/%d" a t n) refs))
  in
  QCheck.Test.make ~name:"dtb lookup_addr = lookup (private and shared)"
    ~count:200 (QCheck.make ~print gen)
    (fun (policy, refs) ->
      let run ~boxed ~last_cache =
        let dtb =
          match policy with
          | None -> Dtb.create ~last_cache cfg ~buffer_base:0
          | Some policy ->
              Dtb.create_shared ~last_cache ~policy ~programs:3 cfg
                ~buffer_base:0
        in
        let log =
          List.map
            (fun (asid, tag, words) ->
              if policy <> None then Dtb.switch_to dtb ~asid;
              let addr =
                if boxed then
                  match Dtb.lookup dtb ~tag with `Hit a -> a | `Miss -> -1
                else Dtb.lookup_addr dtb ~tag
              in
              if addr < 0 then begin
                Dtb.begin_translation dtb ~tag;
                for w = 1 to words do
                  ignore (Dtb.emit dtb w)
                done;
                ignore (Dtb.end_translation dtb)
              end;
              addr)
            refs
        in
        (log, Dtb.hits dtb, Dtb.misses dtb, Dtb.evictions dtb)
      in
      let reference = run ~boxed:true ~last_cache:false in
      List.for_all
        (fun (boxed, last_cache) -> run ~boxed ~last_cache = reference)
        [ (false, false); (true, true); (false, true) ])

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "core",
    [
      Alcotest.test_case "dtb hit after install" `Quick test_dtb_hit_after_install;
      Alcotest.test_case "dtb LRU within a set" `Quick test_dtb_lru_within_set;
      Alcotest.test_case "dtb overflow chaining" `Quick test_dtb_overflow_chaining;
      Alcotest.test_case "dtb eviction releases chains" `Quick
        test_dtb_eviction_releases_chain;
      Alcotest.test_case "dtb overflow exhaustion" `Quick
        test_dtb_overflow_exhaustion;
      Alcotest.test_case "dtb last-translation cache differential" `Quick
        test_dtb_last_cache_differential;
      Alcotest.test_case "dtb associativity vs conflicts" `Quick
        test_dtb_full_assoc_beats_direct_on_conflicts;
      Alcotest.test_case "dtb sim = machine dtb" `Quick test_dtb_sim_matches_machine;
      Alcotest.test_case "strategies agree on outputs" `Slow
        test_strategies_differential;
      Alcotest.test_case "dtb beats interp on loops" `Quick
        test_dtb_beats_interp_on_loops;
      Alcotest.test_case "der(level1) is fastest" `Quick test_der_l1_is_fastest;
      Alcotest.test_case "block translation agrees and wins" `Quick
        test_block_translation_agrees_and_wins;
      Alcotest.test_case "decode assist agrees and helps" `Quick
        test_decode_assist_agrees_and_helps;
      Alcotest.test_case "b1700 restricted encoding" `Quick
        test_b1700_restricted_kind;
      Alcotest.test_case "compound datapath agrees and helps" `Quick
        test_compound_datapath_agrees_and_helps;
      Alcotest.test_case "two-level translation" `Quick
        test_two_level_translation;
      Alcotest.test_case "space/time shape" `Quick test_space_time_shape;
      Alcotest.test_case "figure 1 shape assertions" `Slow test_figure1_shape;
      Alcotest.test_case "locality basics" `Quick test_locality_basics;
      Alcotest.test_case "locality monotone in capacity" `Quick
        test_locality_monotone_in_capacity;
      Alcotest.test_case "tracegen deterministic" `Quick test_tracegen_deterministic;
      Alcotest.test_case "tracegen locality effect" `Quick
        test_tracegen_locality_effect;
      Alcotest.test_case "suite traces are local" `Quick test_suite_traces_are_local;
      Alcotest.test_case "paper table 2 regenerated exactly" `Quick
        test_paper_table2_exact;
      Alcotest.test_case "paper table 3 regenerated exactly" `Quick
        test_paper_table3_exact;
      Alcotest.test_case "model qualitative shapes" `Quick test_model_shapes;
      Alcotest.test_case "calibration sane" `Quick test_calibration_sane;
      Alcotest.test_case "dtb capacity sweep monotone" `Quick
        test_dtb_sweep_monotone_capacity;
      Alcotest.test_case "4-way close to full assoc" `Quick
        test_assoc_four_way_near_full;
      qcheck prop_machine_differential;
      qcheck prop_dtb_recency_matches_counter_lru;
      qcheck prop_dtb_lookup_addr_matches_lookup;
      Alcotest.test_case "dtb chain words are Gotos" `Quick
        test_dtb_chain_words_are_gotos;
      Alcotest.test_case "dtb emit allocates nothing" `Quick
        test_dtb_emit_allocates_nothing;
    ] )
