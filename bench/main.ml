(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablation studies listed in DESIGN.md, and a set of
   Bechamel micro-benchmarks of the substrate.

   Usage: main.exe [-j N] [--journal PATH] [--resume PATH] [target ...]
   Targets: table1 table2 table3 figure1 figure2 figure3 figure4
            model-vs-sim encodings assoc alloc crossover assist blocks
            languages summary datapath levels mix locality micro perf
            load resilience all
   No arguments = everything except micro, perf, load and resilience.

   --journal PATH records every completed cell of the campaign-shaped
   targets (figure2, model-vs-sim, assoc, alloc, crossover, languages,
   locality, summary, mix, faults, load, resilience) to per-target
   fsync'd JSON-lines journals derived from PATH ("out.jsonl"
   -> "out.summary.jsonl", ...); --resume PATH serves already-journaled
   cells instead of recomputing them, so "--journal F --resume F" can be
   re-run after a mid-run kill until the report completes, byte-identical
   to an uninterrupted run.  A journal resumed often enough to accumulate
   superseded records is compacted in place on the next resume.
   A journal from a different configuration is a hard error (exit 2).
   A cell that keeps failing is retried and then quarantined: its row is
   marked, the rest of the report completes, and the exit status is 1.

   Grid-shaped targets (figure2, model-vs-sim, assoc, alloc, crossover,
   languages, summary, locality) evaluate their points through the
   Sweep worker pool; -j N (or UHM_JOBS=N) sets the domain count, the
   default is Domain.recommended_domain_count.  Output is byte-identical
   at any domain count.

   The perf target measures host-side simulator throughput (wall time,
   simulated cycles per second) and records it in BENCH_simulator.json
   in the current directory (its samples, backend and sweep sections).
   Environment knobs: UHM_PERF_RUNS (min runs per sample),
   UHM_PERF_SECONDS (min seconds per sample), UHM_PERF_OUT (output
   path), UHM_PERF_SWEEP (0 skips the parallel-sweep timing),
   UHM_PERF_SWEEP_REPEATS (timings per wall-clock point, default 2).

   The load target records the open-arrival saturation study (lib/serve):
   sojourn percentiles vs offered load under each DTB sharing policy,
   written to the same BENCH_simulator.json as a "load" section.  The
   resilience target records the fault-tolerant serving study: SLO
   attainment, goodput and p99 degradation vs injected fault rate, a
   schema-v5 "resilience" section of the same file.  perf, load and
   resilience each replace only their own sections; every other section
   of the file, known to this binary or not, is kept as parsed.
   UHM_LOAD_JOBS / UHM_RESILIENCE_JOBS set the arrivals per cell
   (defaults 400 / 150); UHM_PERF_OUT names the file for all. *)

module Table = Uhm_report.Table
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Model = Uhm_perfmodel.Model
module Suite = Uhm_workload.Suite
module Locality = Uhm_workload.Locality
module Tracegen = Uhm_workload.Tracegen
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Experiment = Uhm_core.Experiment
module Sweep = Uhm_core.Sweep
module Machine = Uhm_machine.Machine
module Asm = Uhm_machine.Asm
module SF = Uhm_machine.Short_format
module Isa = Uhm_dir.Isa

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* -j N from the command line; None defers to UHM_JOBS / the core count
   via Sweep.default_domains.  Tables are rendered from the sweep results
   in submission order, so the output does not depend on this value. *)
let jobs : int option ref = ref None

let sweep_map f xs = Sweep.map ?domains:!jobs f xs

module Campaign = Uhm_campaign.Campaign

(* --journal PATH / --resume PATH from the command line; each
   campaign-shaped target derives its own file from them. *)
let journal_path : string option ref = ref None
let resume_path : string option ref = ref None

(* quarantined cells across all targets; a non-empty count fails the run
   (exit 1) after every report has been printed *)
let quarantined_cells = ref 0

(* One campaign run with the bench's error handling: a journal from a
   different configuration is a hard error (exit 2). *)
let run_campaign ~target ~fingerprint ~cells grid =
  let derive =
    Option.map (fun path ->
        let base = Filename.remove_extension path in
        let ext = Filename.extension path in
        Printf.sprintf "%s.%s%s" base target ext)
  in
  let journal = derive !journal_path and resume = derive !resume_path in
  match
    Campaign.run ?journal ?resume ~campaign:("bench-" ^ target) ~fingerprint
      ~cells (fun setup ->
        if setup.Campaign.resumed > 0 then
          Printf.eprintf
            "bench: %s: %d of %d cells served from the journal\n%!" target
            setup.Campaign.resumed cells;
        grid setup)
  with
  | result -> result
  | exception Campaign.Mismatch msg ->
      Printf.eprintf "bench: error: %s\n" msg;
      exit 2

let dtb_configs_fingerprint configs =
  "configs="
  ^ String.concat ","
      (List.map
         (fun (c : Dtb.config) ->
           Printf.sprintf "%d.%d.%d.%d" c.Dtb.sets c.Dtb.assoc
             c.Dtb.unit_words c.Dtb.overflow_blocks)
         configs)

let note_quarantine ~target (q : Sweep.quarantine) =
  incr quarantined_cells;
  Printf.eprintf "bench: %s: cell %d quarantined after %d attempt(s): %s\n%!"
    target q.Sweep.q_index q.Sweep.q_attempts q.Sweep.q_reason

let compile name = Suite.compile (Suite.find name)

let getenv_num name of_string default =
  match Sys.getenv_opt name with
  | Some s -> (match of_string s with Some v -> v | None -> default)
  | None -> default

let bench_json_path () =
  Option.value ~default:"BENCH_simulator.json" (Sys.getenv_opt "UHM_PERF_OUT")

(* Representative programs: one loop-dominated, one call-dominated, one
   low-locality. *)
let representative = [ "fact_iter"; "fib_rec"; "flat_straightline" ]

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: one operation at three levels of representation (paper Table 1)";
  print_endline
    "The same computation -- fetch a variable and add it to the running\n\
     value -- expressed as (a) the PSDER call sequence the dynamic\n\
     translator emits, (b) an unencoded word-aligned DIR instruction\n\
     (PDP-11-like fields), and (c) the bit-packed DIR format (S/360-RX-like\n\
     density).\n";
  (* a DIR program containing a single fused Loadadd 0,3 *)
  let p =
    Uhm_dir.Program.make ~name:"table1"
      ~code:[| Isa.instr ~a:0 ~b:3 Isa.Loadadd; Isa.instr Isa.Halt |]
      ~entry:0
      ~contours:
        [|
          { Uhm_dir.Program.id = 0; name = "<main>"; depth = 0; n_args = 0;
            n_locals = 4; max_offset = 3 };
        |]
      ()
  in
  let psder_words =
    [
      "push #0        (static hops)";
      "push #3        (frame offset)";
      "call @loadadd  (semantic routine)";
      "interp <next>  (successor DIR address)";
    ]
  in
  let t =
    Table.create
      ~columns:
        [ ("representation", Table.Left); ("content", Table.Left);
          ("size", Table.Right) ]
      ()
  in
  List.iteri
    (fun i w ->
      Table.add_row t
        [ (if i = 0 then "PSDER sequence" else ""); w;
          (if i = 0 then
             Printf.sprintf "%d bits"
               (List.length psder_words * SF.bits_per_word)
           else "") ])
    psder_words;
  Table.add_rule t;
  let size kind = (Codec.encode kind p).Codec.size_bits in
  let word16_one = size Kind.Word16 - 16 (* minus the halt *) in
  let packed_all = size Kind.Packed in
  let packed_halt = 6 (* opcode only *) in
  Table.add_row t
    [ "word16 (PDP-11-like)"; "loadadd | level | offset";
      Printf.sprintf "%d bits" word16_one ];
  Table.add_row t
    [ "packed (RX-like)"; "6-bit opcode + packed level/offset";
      Printf.sprintf "%d bits" (packed_all - packed_halt) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3                                                      *)
(* ------------------------------------------------------------------ *)

let print_grid ~title ~paper ~regenerated ~general =
  section title;
  let t =
    Table.create
      ~columns:
        (("d \\ x", Table.Left)
        :: List.map (fun x -> (string_of_int x, Table.Right)) Model.table_cols)
      ()
  in
  List.iteri
    (fun i d ->
      Table.add_row t
        (Printf.sprintf "%d (paper)" d
        :: List.map Table.cell_float (Array.to_list paper.(i)));
      Table.add_row t
        (Printf.sprintf "%d (regen)" d
        :: List.map Table.cell_float (Array.to_list regenerated.(i)));
      Table.add_row t
        (Printf.sprintf "%d (model)" d
        :: List.map Table.cell_float (Array.to_list general.(i)));
      Table.add_rule t)
    Model.table_rows;
  Table.print t;
  print_endline
    "(regen) uses the report's printed closed forms and must match (paper)\n\
     exactly; (model) evaluates the general T1/T2/T3 equations at the stated\n\
     parameter values (tau_D=2, tau2=10, g=1.5d, s1=3, s2=1, h_c=0.9,\n\
     h_D=0.8) -- the 1978 report's printed arithmetic differs from its own\n\
     parameter list; see EXPERIMENTS.md."

let general_grid f =
  Array.of_list
    (List.map
       (fun d ->
         Array.of_list
           (List.map
              (fun x ->
                f (Model.paper_defaults ~d:(float_of_int d) ~x:(float_of_int x)))
              Model.table_cols))
       Model.table_rows)

let table2 () =
  print_grid
    ~title:
      "Table 2: % increase in DIR interpretation time, DTB store used as a \
       plain instruction cache (F1)"
    ~paper:Model.paper_table2
    ~regenerated:(Model.regenerate_table2 ())
    ~general:(general_grid Model.f1)

let table3 () =
  print_grid
    ~title:
      "Table 3: % increase in DIR interpretation time from not using a DTB \
       (F2)"
    ~paper:Model.paper_table3
    ~regenerated:(Model.regenerate_table3 ())
    ~general:(general_grid Model.f2)

(* ------------------------------------------------------------------ *)
(* Figure 1: the space of representations, measured                    *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section
    "Figure 1: the space of program representations (measured size and time)";
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let points = Experiment.figure1_points ~name (Suite.parse entry) in
      Printf.printf "\nprogram: %s\n" name;
      let fastest =
        List.fold_left
          (fun acc pt -> min acc pt.Experiment.sp_total_cycles)
          max_int points
      in
      let t =
        Table.create
          ~columns:
            [ ("representation", Table.Left); ("semantic level", Table.Left);
              ("encoding", Table.Left); ("size", Table.Right);
              ("total cycles", Table.Right); ("rel. time", Table.Right) ]
          ()
      in
      List.iter
        (fun pt ->
          Table.add_row t
            [ pt.Experiment.sp_label; pt.Experiment.sp_semantic_level;
              pt.Experiment.sp_encoding;
              Table.cell_bytes ((pt.Experiment.sp_size_bits + 7) / 8);
              Table.cell_int pt.Experiment.sp_total_cycles;
              Table.cell_float
                (float_of_int pt.Experiment.sp_total_cycles
                /. float_of_int fastest) ])
        points;
      Table.print t)
    [ "fact_iter"; "gcd" ];
  print_endline
    "Size falls with the degree of encoding (rightward in the paper's\n\
     figure) while interpretation time rises; the DER corner is fastest\n\
     only while it fits the fast store."

(* ------------------------------------------------------------------ *)
(* Figure 2: DTB organisation, validated behaviourally                 *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "Figure 2: DTB behaviour across capacities (hit ratio)";
  let t =
    Table.create
      ~columns:
        (("program", Table.Left)
        :: List.map
             (fun c ->
               ( Table.cell_bytes
                   (Dtb.config_capacity_words c * SF.bits_per_word / 8),
                 Table.Right ))
             (Experiment.capacity_configs ()))
      ()
  in
  let configs = Experiment.capacity_configs () in
  let programs =
    [ "fact_iter"; "fib_rec"; "quicksort"; "dispatch"; "flat_straightline" ]
  in
  let fingerprint =
    [ "bench figure2"; "programs=" ^ String.concat "," programs;
      dtb_configs_fingerprint configs ]
  in
  let grid =
    run_campaign ~target:"figure2" ~fingerprint
      ~cells:(List.length programs * List.length configs) (fun setup ->
        Experiment.dtb_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~kind:Kind.Huffman ~configs
          (List.map (fun name -> (name, compile name)) programs))
  in
  List.iter
    (fun (name, points) ->
      Table.add_row t
        (name
        :: List.map
             (function
               | Sweep.Completed pt ->
                   Table.cell_pct ~decimals:2 pt.Experiment.dp_hit_ratio
               | Sweep.Quarantined q ->
                   note_quarantine ~target:"figure2" q;
                   "(quar)")
             points))
    grid;
  Table.print t;
  print_endline
    "The working set saturates each program's curve (principle of locality);\n\
     flat_straightline is the adversarial case."

(* ------------------------------------------------------------------ *)
(* Figure 3: UHM organisation, validated by per-unit activity          *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "Figure 3: per-unit activity of the UHM (cycles by component)";
  let t =
    Table.create
      ~columns:
        [ ("program/strategy", Table.Left); ("total", Table.Right);
          ("dir fetch", Table.Right); ("decode (d)", Table.Right);
          ("semantic (x)", Table.Right); ("translate (g)", Table.Right);
          ("IU2+DTB", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      List.iter
        (fun strategy ->
          let r = U.run ~strategy ~kind:Kind.Huffman p in
          let s = r.U.machine_stats in
          let cat c = s.Machine.cat_cycles.(Machine.category_index c) in
          let iu2 =
            r.U.cycles - s.Machine.dir_fetch_cycles - cat Asm.Decode
            - cat Asm.Semantic - cat Asm.Translate
          in
          Table.add_row t
            [ Printf.sprintf "%s/%s" name (U.strategy_name strategy);
              Table.cell_int r.U.cycles;
              Table.cell_int s.Machine.dir_fetch_cycles;
              Table.cell_int (cat Asm.Decode);
              Table.cell_int (cat Asm.Semantic);
              Table.cell_int (cat Asm.Translate);
              Table.cell_int iu2 ])
        [ U.Interp; U.Dtb_strategy Dtb.paper_config ];
      Table.add_rule t)
    representative;
  Table.print t;
  print_endline
    "With the DTB, fetch and decode all but vanish: \"the UHM [spends] all\n\
     its time performing computation related to the semantics of the DIR\n\
     program instead of performing overhead tasks\" (paper, section 6.2)."

(* ------------------------------------------------------------------ *)
(* Figure 4: the INTERP instruction's two paths                        *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4: INTERP flow (hit path vs miss/translate path)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("INTERPs", Table.Right);
          ("hits", Table.Right); ("misses", Table.Right);
          ("hit ratio", Table.Right); ("evictions", Table.Right);
          ("overflow blocks", Table.Right); ("d+g per miss", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      let r =
        U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Huffman p
      in
      let s = r.U.machine_stats in
      let misses = Option.value ~default:0 r.U.dtb_misses in
      let cat c = s.Machine.cat_cycles.(Machine.category_index c) in
      let per_miss =
        if misses = 0 then 0.
        else
          float_of_int (cat Asm.Decode + cat Asm.Translate)
          /. float_of_int misses
      in
      Table.add_row t
        [ name;
          Table.cell_int s.Machine.interp_count;
          Table.cell_int (s.Machine.interp_count - misses);
          Table.cell_int misses;
          Table.cell_pct ~decimals:2 (Option.value ~default:0. r.U.dtb_hit_ratio);
          Table.cell_int (Option.value ~default:0 r.U.dtb_evictions);
          Table.cell_int (Option.value ~default:0 r.U.dtb_overflow_allocations);
          Table.cell_float per_miss ])
    (representative @ [ "quicksort"; "sieve" ]);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Model vs simulation                                                 *)
(* ------------------------------------------------------------------ *)

let model_vs_sim () =
  section "X1: analytic model vs cycle-level simulation (cycles per DIR instr)";
  let t =
    Table.create
      ~columns:
        [ ("program/kind", Table.Left); ("T1 sim", Table.Right);
          ("T1 model", Table.Right); ("T3 sim", Table.Right);
          ("T3 model", Table.Right); ("T2 sim", Table.Right);
          ("T2 model", Table.Right); ("F2 sim", Table.Right);
          ("F2 model", Table.Right) ]
      ()
  in
  let kinds = [ Kind.Packed; Kind.Huffman ] in
  let jobs_list =
    List.concat_map
      (fun name -> List.map (fun kind -> (name, kind)) kinds)
      representative
  in
  let fingerprint =
    [ "bench model-vs-sim";
      "programs=" ^ String.concat "," representative;
      "kinds=" ^ String.concat "," (List.map Kind.name kinds) ]
  in
  let slots =
    run_campaign ~target:"model-vs-sim" ~fingerprint
      ~cells:(List.length jobs_list) (fun setup ->
        Sweep.map_supervised ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook
          (fun (name, kind) ->
            let m = Experiment.measure ~kind ~name (compile name) in
            let c = Experiment.calibrate m in
            let params = Experiment.params_of c in
            let sim = U.cycles_per_dir_instruction in
            let t1s = sim m.Experiment.interp
            and t2s = sim m.Experiment.dtb
            and t3s = sim m.Experiment.cached in
            [ Printf.sprintf "%s/%s" name (Kind.name kind);
              Table.cell_float t1s; Table.cell_float (Model.t1 params);
              Table.cell_float t3s; Table.cell_float (Model.t3 params);
              Table.cell_float t2s; Table.cell_float (Model.t2 params);
              Table.cell_float ((t1s -. t2s) /. t2s *. 100.);
              Table.cell_float (Model.f2 params) ])
          jobs_list)
  in
  List.iteri
    (fun i slot ->
      (match slot with
      | Sweep.Completed row -> Table.add_row t row
      | Sweep.Quarantined q ->
          note_quarantine ~target:"model-vs-sim" q;
          let name, kind = List.nth jobs_list i in
          Table.add_row t
            [ Printf.sprintf "%s/%s" name (Kind.name kind); "(quarantined)";
              "-"; "-"; "-"; "-"; "-"; "-"; "-" ]);
      if (i + 1) mod List.length kinds = 0 then Table.add_rule t)
    slots;
  Table.print t;
  print_endline
    "The model runs on parameters calibrated from the simulation (d, g, x,\n\
     s1, s2, h_c, h_D measured per program); agreement validates the\n\
     paper's analysis, and F2 > 0 wherever loops exist reproduces its\n\
     headline result."

(* ------------------------------------------------------------------ *)
(* Encoding ablation                                                   *)
(* ------------------------------------------------------------------ *)

let encodings () =
  section "X4: encoding ablation -- program size and decode cost";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("encoding", Table.Left);
          ("bits/instr", Table.Right); ("saved vs word16", Table.Right);
          ("decode cycles/instr", Table.Right);
          ("interp cycles/instr", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      let word16_bits =
        Codec.bits_per_instruction (Codec.encode Kind.Word16 p)
      in
      List.iter
        (fun kind ->
          let e = Codec.encode kind p in
          let r = U.run_encoded ~strategy:U.Interp e in
          let d =
            float_of_int
              r.U.machine_stats.Machine.cat_cycles.(Machine.category_index
                                                      Asm.Decode)
            /. float_of_int r.U.dir_steps
          in
          Table.add_row t
            [ name; Kind.name kind;
              Table.cell_float (Codec.bits_per_instruction e);
              Table.cell_pct ~decimals:1
                (1. -. (Codec.bits_per_instruction e /. word16_bits));
              Table.cell_float d;
              Table.cell_float (U.cycles_per_dir_instruction r) ])
        Kind.all;
      Table.add_rule t)
    [ "gcd"; "quicksort" ];
  Table.print t;
  print_endline
    "Compaction of 25-75% against the unencoded form reproduces the\n\
     B1700/Wilner figures the paper cites; decode cost rises with the\n\
     degree of encoding -- the space/time trade the DTB amortises."

(* ------------------------------------------------------------------ *)
(* DTB ablations                                                       *)
(* ------------------------------------------------------------------ *)

let assoc () =
  section "X2: DTB associativity (constant 256 entries)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("direct", Table.Right);
          ("2-way", Table.Right); ("4-way", Table.Right);
          ("8-way", Table.Right); ("full", Table.Right) ]
      ()
  in
  let configs = Experiment.assoc_configs () in
  let programs =
    [ "fib_rec"; "quicksort"; "dispatch"; "binsearch"; "flat_straightline" ]
  in
  let fingerprint =
    [ "bench assoc"; "programs=" ^ String.concat "," programs;
      dtb_configs_fingerprint configs ]
  in
  let grid =
    run_campaign ~target:"assoc" ~fingerprint
      ~cells:(List.length programs * List.length configs) (fun setup ->
        Experiment.dtb_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~kind:Kind.Huffman ~configs
          (List.map (fun name -> (name, compile name)) programs))
  in
  List.iter
    (fun (name, points) ->
      Table.add_row t
        (name
        :: List.map
             (function
               | Sweep.Completed pt ->
                   Table.cell_pct ~decimals:2 pt.Experiment.dp_hit_ratio
               | Sweep.Quarantined q ->
                   note_quarantine ~target:"assoc" q;
                   "(quar)")
             points))
    grid;
  Table.print t;
  print_endline
    "Paper section 5.2: set associativity of degree 4 is nearly as\n\
     effective as full associativity."

let alloc () =
  section "X3: DTB allocation policy (fixed units vs chained increments)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("unit", Table.Left);
          ("capacity", Table.Right); ("hit ratio", Table.Right);
          ("overflow allocs", Table.Right) ]
      ()
  in
  let configs = Experiment.alloc_configs () in
  let programs = [ "fib_rec"; "quicksort" ] in
  let fingerprint =
    [ "bench alloc"; "programs=" ^ String.concat "," programs;
      dtb_configs_fingerprint configs ]
  in
  let grid =
    run_campaign ~target:"alloc" ~fingerprint
      ~cells:(List.length programs * List.length configs) (fun setup ->
        Experiment.dtb_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~kind:Kind.Huffman ~configs
          (List.map (fun name -> (name, compile name)) programs))
  in
  List.iter
    (fun (name, points) ->
      List.iter
        (function
          | Sweep.Quarantined q ->
              note_quarantine ~target:"alloc" q;
              Table.add_row t [ name; "(quarantined)"; "-"; "-"; "-" ]
          | Sweep.Completed pt ->
              Table.add_row t
                [ name;
                  Printf.sprintf "%d words%s"
                    pt.Experiment.dp_config.Dtb.unit_words
                    (if pt.Experiment.dp_config.Dtb.overflow_blocks > 0 then
                       " + chain"
                     else " fixed");
                  Table.cell_bytes (pt.Experiment.dp_capacity_words * 2);
                  Table.cell_pct ~decimals:2 pt.Experiment.dp_hit_ratio;
                  Table.cell_int pt.Experiment.dp_overflow_allocations ])
        points;
      Table.add_rule t)
    grid;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Crossover: where the DTB stops paying                               *)
(* ------------------------------------------------------------------ *)

let crossover () =
  section "X5: crossover -- F2 as decoding gets trivial or semantics dominate";
  let xs = [ 2; 5; 10; 20; 40; 80 ] in
  let t =
    Table.create
      ~columns:
        (("d \\ x", Table.Right)
        :: List.map (fun x -> (string_of_int x, Table.Right)) xs)
      ()
  in
  List.iter
    (fun d ->
      Table.add_row t
        (string_of_int d
        :: List.map
             (fun x ->
               Table.cell_float
                 (Model.f2
                    (Model.paper_defaults ~d:(float_of_int d)
                       ~x:(float_of_int x))))
             xs))
    [ 2; 5; 10; 20; 30 ];
  Table.print t;
  print_endline
    "\"The DTB is not particularly effective if the task of decoding is\n\
     trivial or if the time spent in the semantic routines is much greater\n\
     than the time that would be spent in decoding\" (paper, section 7).";
  print_endline "\nMeasured counterpart (word16 = easy decode, digram = hard):";
  let t2 =
    Table.create
      ~columns:
        [ ("program/kind", Table.Left); ("interp c/i", Table.Right);
          ("dtb c/i", Table.Right); ("speedup", Table.Right) ]
      ()
  in
  let cells =
    List.concat_map
      (fun name ->
        List.map (fun kind -> (name, kind))
          [ Kind.Word16; Kind.Packed; Kind.Digram ])
      [ "fact_iter"; "string_out" ]
  in
  let fingerprint =
    [ "bench crossover";
      "cells="
      ^ String.concat ","
          (List.map (fun (n, k) -> n ^ "/" ^ Kind.name k) cells) ]
  in
  let rows =
    run_campaign ~target:"crossover" ~fingerprint
      ~cells:(List.length cells) (fun setup ->
        Sweep.map_supervised ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook
          (fun (name, kind) ->
            let p = compile name in
            let interp = U.run ~strategy:U.Interp ~kind p in
            let dtb =
              U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind p
            in
            [ Printf.sprintf "%s/%s" name (Kind.name kind);
              Table.cell_float (U.cycles_per_dir_instruction interp);
              Table.cell_float (U.cycles_per_dir_instruction dtb);
              Table.cell_float
                (float_of_int interp.U.cycles /. float_of_int dtb.U.cycles) ])
          cells)
  in
  List.iter2
    (fun (name, kind) slot ->
      match slot with
      | Sweep.Completed row -> Table.add_row t2 row
      | Sweep.Quarantined q ->
          note_quarantine ~target:"crossover" q;
          Table.add_row t2
            [ Printf.sprintf "%s/%s" name (Kind.name kind); "(quar)"; "-";
              "-" ])
    cells rows;
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Hardware decode assist vs the DTB (paper section 8)                 *)
(* ------------------------------------------------------------------ *)

let assist () =
  section
    "X6: random logic vs memory -- a hardware decode unit vs the DTB      (paper section 8)";
  let t =
    Table.create
      ~columns:
        [ ("program/kind", Table.Left); ("interp", Table.Right);
          ("interp+assist", Table.Right); ("dtb", Table.Right);
          ("dtb+assist", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      List.iter
        (fun kind ->
          let ci assist strategy =
            Table.cell_float
              (U.cycles_per_dir_instruction
                 (U.run ~decode_assist:assist ~strategy ~kind p))
          in
          Table.add_row t
            [ Printf.sprintf "%s/%s" name (Kind.name kind);
              ci false U.Interp; ci true U.Interp;
              ci false (U.Dtb_strategy Dtb.paper_config);
              ci true (U.Dtb_strategy Dtb.paper_config) ])
        [ Kind.Packed; Kind.Huffman; Kind.Digram ];
      Table.add_rule t)
    [ "fact_iter"; "gcd" ];
  Table.print t;
  print_endline
    "\"The decoding overhead ... may be reduced either by providing powerful\n\
     hardware aids to the decoding process or by the use of a dynamic\n\
     translation buffer\" (paper, section 8).  The assist unit halves the\n\
     interpreter's time on encoded DIRs; the DTB removes the decode\n\
     entirely on hits and barely benefits from the extra logic."

(* ------------------------------------------------------------------ *)
(* Block translation (beyond the paper)                                *)
(* ------------------------------------------------------------------ *)

let blocks () =
  section
    "X7: translation granularity -- one instruction vs basic-block runs";
  let block_cfg =
    { Dtb.sets = 32; assoc = 4; unit_words = 16; overflow_blocks = 256 }
  in
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("per-instr c/i", Table.Right);
          ("blocks<=4 c/i", Table.Right); ("blocks<=16 c/i", Table.Right);
          ("INTERP/instr (16)", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      let run strategy = U.run ~strategy ~kind:Kind.Huffman p in
      let per = run (U.Dtb_strategy Dtb.paper_config) in
      let b4 = run (U.Dtb_blocks (block_cfg, 4)) in
      let b16 = run (U.Dtb_blocks (block_cfg, 16)) in
      Table.add_row t
        [ name;
          Table.cell_float (U.cycles_per_dir_instruction per);
          Table.cell_float (U.cycles_per_dir_instruction b4);
          Table.cell_float (U.cycles_per_dir_instruction b16);
          Table.cell_float
            (float_of_int b16.U.machine_stats.Machine.interp_count
            /. float_of_int b16.U.dir_steps) ])
    [ "fact_iter"; "fib_rec"; "quicksort"; "sieve"; "dispatch"; "collatz" ];
  Table.print t;
  print_endline
    "Translating straight-line runs amortises the INTERP lookup (the s1*tauD\n\
     term) over whole basic blocks -- the refinement that turns the paper's\n\
     DTB into a modern template JIT's code cache."

(* ------------------------------------------------------------------ *)
(* Locality                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Multi-level dynamic translation (paper section 4)                   *)
(* ------------------------------------------------------------------ *)

let levels () =
  section
    "X10: levels of dynamic translation -- a decoded-instruction store      behind a small DTB (paper section 4)";
  (* a deliberately small first-level DTB (32 entries) so re-translation is
     frequent; the second level holds 2048 decoded instructions *)
  let small = { Dtb.sets = 8; assoc = 4; unit_words = 4; overflow_blocks = 64 } in
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("interp c/i", Table.Right);
          ("L1-only c/i", Table.Right); ("L1+L2 c/i", Table.Right);
          ("L1 hit", Table.Right); ("L2 hit", Table.Right);
          ("decode cycles saved", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      let interp = U.run ~strategy:U.Interp ~kind:Kind.Digram p in
      let l1 = U.run ~strategy:(U.Dtb_strategy small) ~kind:Kind.Digram p in
      let l2 = U.run ~strategy:(U.Dtb_two_level (small, 2048)) ~kind:Kind.Digram p in
      let decode r =
        r.U.machine_stats.Machine.cat_cycles.(Machine.category_index Asm.Decode)
      in
      Table.add_row t
        [ name;
          Table.cell_float (U.cycles_per_dir_instruction interp);
          Table.cell_float (U.cycles_per_dir_instruction l1);
          Table.cell_float (U.cycles_per_dir_instruction l2);
          Table.cell_pct ~decimals:1 (Option.value ~default:0. l1.U.dtb_hit_ratio);
          Table.cell_pct ~decimals:1 (Option.value ~default:0. l2.U.dtb_l2_hit_ratio);
          Table.cell_int (decode l1 - decode l2) ])
    [ "quicksort"; "dispatch"; "sieve"; "binsearch"; "fib_rec" ];
  Table.print t;
  print_endline
    "\"When the dissimilarities between the representations ... are great,\n\
     it is possible that a number of levels of dynamic translation will be\n\
     required\" (paper, section 4).  With a thrashing first level, keeping\n\
     decoded instructions at a second level lets a re-translation pay only\n\
     g, not d+g -- the hierarchy of bindings with increasing persistence."

(* ------------------------------------------------------------------ *)
(* Restructurable datapath (paper section 6.1)                         *)
(* ------------------------------------------------------------------ *)

let datapath () =
  section
    "X9: restructurable datapath -- compound ALU transactions in the      semantic routines (paper section 6.1)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("x/instr", Table.Right);
          ("x/instr (compound)", Table.Right); ("dtb c/i", Table.Right);
          ("dtb c/i (compound)", Table.Right) ]
      ()
  in
  List.iter
    (fun name ->
      let p = compile name in
      let x_of r =
        float_of_int
          r.U.machine_stats.Machine.cat_cycles.(Machine.category_index
                                                  Asm.Semantic)
        /. float_of_int r.U.dir_steps
      in
      let run compound =
        U.run ~compound_datapath:compound
          ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Packed p
      in
      let plain = run false and fused = run true in
      Table.add_row t
        [ name; Table.cell_float (x_of plain); Table.cell_float (x_of fused);
          Table.cell_float (U.cycles_per_dir_instruction plain);
          Table.cell_float (U.cycles_per_dir_instruction fused) ])
    [ "fact_iter"; "sieve"; "matmul"; "binsearch" ];
  Table.print t;
  print_endline
    "The compound ALU folds the base+offset+header address calculation of\n\
     every variable access into one register-to-register transaction --\n\
     \"more significant transformations ... in one register-to-register\n\
     transaction\" (section 6.1) -- trimming x, the component the DTB\n\
     cannot touch."


(* ------------------------------------------------------------------ *)
(* Multiprogramming: shared-DTB contention                             *)
(* ------------------------------------------------------------------ *)

let mix () =
  section
    "X11: multiprogramming -- three programs time-sliced over one shared \
     DTB";
  let module FE = Uhm_fault.Experiment in
  let module Resilient = Uhm_fault.Resilient in
  let programs = List.map (fun name -> (name, compile name)) representative in
  (* single-program reference cycles: the quantum->infinity rows of the
     grid must reproduce these exactly, for every policy *)
  let solo =
    sweep_map
      (fun (_, p) ->
        (U.run ~strategy:(U.Dtb_strategy Dtb.paper_config) ~kind:Kind.Huffman p)
          .U.cycles)
      programs
  in
  let policies = [ Dtb.Flush_on_switch; Dtb.Partitioned; Dtb.Tagged ] in
  let axes = FE.mix_axes ~policies ~configs:[ Dtb.paper_config ] () in
  let fingerprint =
    [ "bench mix";
      "programs=" ^ String.concat "," (List.map fst programs);
      "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
      "quanta="
      ^ String.concat "," (List.map string_of_int FE.default_quanta);
      "cell=" ^ FE.cell_format ]
  in
  let grid =
    run_campaign ~target:"mix" ~fingerprint
      ~cells:(List.length axes) (fun setup ->
        FE.mix_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~kind:Kind.Huffman ~policies
          ~configs:[ Dtb.paper_config ] programs)
  in
  let t =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("quantum", Table.Right);
          ("total cycles", Table.Right); ("switches", Table.Right);
          ("flushes", Table.Right); ("hit ratio", Table.Right);
          ("evictions", Table.Right); ("vs solo", Table.Left) ]
      ()
  in
  let quantum_label q =
    if q = Resilient.solo_quantum then "inf" else string_of_int q
  in
  let prev_policy = ref None in
  List.iter2
    (fun (policy, _, quantum, _) slot ->
      (match !prev_policy with
      | Some p when p <> policy -> Table.add_rule t
      | _ -> ());
      prev_policy := Some policy;
      match slot with
      | Sweep.Quarantined q ->
          note_quarantine ~target:"mix" q;
          Table.add_row t
            [ Dtb.policy_name policy; quantum_label quantum; "(quarantined)";
              "-"; "-"; "-"; "-"; "" ]
      | Sweep.Completed (cell : FE.mix_cell) ->
          let r = cell.FE.mc_result in
          let at_infinity = cell.FE.mc_quantum = Resilient.solo_quantum in
          let vs_solo =
            if not at_infinity then ""
            else if
              List.for_all2
                (fun cycles (pr : Resilient.program_report) ->
                  pr.Resilient.pr_cycles = cycles)
                solo r.Resilient.rr_programs
            then "= solo (exact)"
            else begin
              (* fail the run: the cross-check is the point of the row *)
              incr quarantined_cells;
              Printf.eprintf "bench: mix: %s at quantum=inf diverges from solo\n%!"
                (Dtb.policy_name cell.FE.mc_policy);
              "DIVERGENT"
            end
          in
          Table.add_row t
            [ Dtb.policy_name cell.FE.mc_policy;
              quantum_label cell.FE.mc_quantum;
              Table.cell_int r.Resilient.rr_makespan;
              Table.cell_int r.Resilient.rr_switches;
              Table.cell_int r.Resilient.rr_flushes;
              Table.cell_pct ~decimals:2 r.Resilient.rr_hit_ratio;
              Table.cell_int r.Resilient.rr_evictions; vs_solo ])
    axes grid;
  Table.print t;
  print_endline
    "At quantum=inf nothing is preempted and each program's cycle count\n\
     equals its single-program golden number under every policy.  At small\n\
     quanta flush pays a full retranslation of the working set per slice;\n\
     tagged keeps every program's entries live across switches; partitioned\n\
     trades capacity for isolation (see EXPERIMENTS.md for the regimes).";
  print_endline "\nFairness: per-program slowdown vs a solo run (cycles/solo cycles):";
  let ft =
    Table.create
      ~columns:
        (("policy", Table.Left) :: ("quantum", Table.Right)
        :: List.map (fun (name, _) -> (name, Table.Right)) programs)
      ()
  in
  List.iter2
    (fun (policy, _, quantum, _) slot ->
      match slot with
      | Sweep.Quarantined _ ->
          Table.add_row ft
            (Dtb.policy_name policy :: quantum_label quantum
            :: List.map (fun _ -> "-") programs)
      | Sweep.Completed (cell : FE.mix_cell) ->
          Table.add_row ft
            (Dtb.policy_name policy :: quantum_label quantum
            :: List.map2
                 (fun (pr : Resilient.program_report) solo ->
                   Printf.sprintf "%.3fx"
                     (Resilient.slowdown ~cycles:pr.Resilient.pr_cycles ~solo))
                 cell.FE.mc_result.Resilient.rr_programs
                 cell.FE.mc_solo_cycles))
    axes grid;
  Table.print ft;
  print_endline
    "Slowdown is exactly 1.000x for every program at quantum=inf; under\n\
     flush at small quanta the shortest program suffers most, because each\n\
     of its slices repays the whole retranslation of its working set."

(* ------------------------------------------------------------------ *)
(* Whole-suite summary dashboard                                       *)
(* ------------------------------------------------------------------ *)

let summary () =
  section
    "Summary: every workload under the paper's three machines (digram      encoding)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("lang", Table.Left);
          ("steps", Table.Right); ("bits/i", Table.Right);
          ("T1 c/i", Table.Right); ("T3 c/i", Table.Right);
          ("T2 c/i", Table.Right); ("h_D", Table.Right);
          ("F2 meas.", Table.Right) ]
      ()
  in
  let names = Experiment.summary_names () in
  let fingerprint =
    [ "bench summary"; "programs=" ^ String.concat "," names ]
  in
  let slots =
    run_campaign ~target:"summary" ~fingerprint
      ~cells:(List.length names) (fun setup ->
        Experiment.summary_rows_slots ?domains:!jobs
          ~cached:setup.Campaign.cached ?cell_hook:setup.Campaign.cell_hook ())
  in
  let prev_lang = ref None in
  List.iter2
    (fun name slot ->
      match slot with
      | Sweep.Quarantined q ->
          note_quarantine ~target:"summary" q;
          Table.add_row t
            [ name; "-"; "(quarantined)"; "-"; "-"; "-"; "-"; "-"; "-" ]
      | Sweep.Completed (r : Experiment.summary_row) ->
          (match !prev_lang with
          | Some lang when lang <> r.Experiment.sr_lang -> Table.add_rule t
          | _ -> ());
          prev_lang := Some r.Experiment.sr_lang;
          Table.add_row t
            [ r.Experiment.sr_program; r.Experiment.sr_lang;
              Table.cell_int r.Experiment.sr_dir_steps;
              Table.cell_float r.Experiment.sr_bits_per_instr;
              Table.cell_float r.Experiment.sr_t1_ci;
              Table.cell_float r.Experiment.sr_t3_ci;
              Table.cell_float r.Experiment.sr_t2_ci;
              Table.cell_pct ~decimals:1 r.Experiment.sr_dtb_hit_ratio;
              Table.cell_float r.Experiment.sr_f2_measured ])
    names slots;
  Table.print t;
  print_endline
    "F2 meas. is the measured percentage cost of not having a DTB (paper\n\
     Table 3's figure of merit); it is large and positive on every workload\n\
     with reuse and negative only on the designed straight-line adversary."

(* ------------------------------------------------------------------ *)
(* Two languages, one host                                             *)
(* ------------------------------------------------------------------ *)

let languages () =
  section
    "Two dissimilar languages on one universal host (the premise of \
     sections 1-2)";
  let t =
    Table.create
      ~columns:
        [ ("program", Table.Left); ("language", Table.Left);
          ("instrs", Table.Right); ("opcode entropy", Table.Right);
          ("digram bits/i", Table.Right); ("interp c/i", Table.Right);
          ("dtb c/i", Table.Right); ("hit ratio", Table.Right) ]
      ()
  in
  let row (name, lang, compile_p) =
    let p = compile_p () in
    let stats = Uhm_dir.Static_stats.of_program p in
    let digram = Codec.encode Kind.Digram p in
    let interp = U.run_encoded ~strategy:U.Interp digram in
    let dtb = U.run_encoded ~strategy:(U.Dtb_strategy Dtb.paper_config) digram in
    [ name; lang;
      Table.cell_int (Uhm_dir.Program.size_instructions p);
      Table.cell_float (Uhm_dir.Static_stats.opcode_entropy stats);
      Table.cell_float (Codec.bits_per_instruction digram);
      Table.cell_float (U.cycles_per_dir_instruction interp);
      Table.cell_float (U.cycles_per_dir_instruction dtb);
      Table.cell_pct ~decimals:2 (Option.value ~default:0. dtb.U.dtb_hit_ratio) ]
  in
  let jobs_list =
    List.map
      (fun name -> (name, "Algol-S", fun () -> compile name))
      [ "gcd"; "sieve"; "fib_rec" ]
    @ List.map
        (fun e ->
          ( e.Uhm_ftn.Suite.name,
            "Fortran-S",
            fun () -> Uhm_ftn.Suite.compile ~fuse:false e ))
        (List.map Uhm_ftn.Suite.find [ "ftn_euclid"; "ftn_sieve"; "ftn_fib" ])
  in
  let fingerprint =
    [ "bench languages";
      "cells="
      ^ String.concat ","
          (List.map (fun (n, lang, _) -> n ^ "/" ^ lang) jobs_list) ]
  in
  let rows =
    run_campaign ~target:"languages" ~fingerprint
      ~cells:(List.length jobs_list) (fun setup ->
        Sweep.map_supervised ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook row jobs_list)
  in
  List.iter2
    (fun (name, lang, _) slot ->
      match slot with
      | Sweep.Completed r -> Table.add_row t r
      | Sweep.Quarantined q ->
          note_quarantine ~target:"languages" q;
          Table.add_row t
            [ name; lang; "(quar)"; "-"; "-"; "-"; "-"; "-" ])
    jobs_list rows;
  Table.print t;
  print_endline
    "Both front ends bind to the same DIR, semantic routines and DTB; the\n\
     Fortran programs' GOTO-shaped control and 1-based subscripts give a\n\
     visibly different opcode mix, yet the DTB flattens both languages to\n\
     nearly the same cycles per instruction -- the \"equal facility\" the\n\
     paper asks of a universal host (section 1.2)."

let locality () =
  section "Workload locality (the premise of section 4)";
  let t =
    Table.create
      ~columns:
        [ ("trace", Table.Left); ("refs", Table.Right);
          ("footprint", Table.Right); ("avg WS(1k)", Table.Right);
          ("LRU-64 hit", Table.Right); ("LRU-256 hit", Table.Right) ]
      ()
  in
  let trace_row label trace =
    [ label;
      Table.cell_int (Array.length trace);
      Table.cell_int (Locality.footprint trace);
      Table.cell_float (Locality.average_working_set ~window:1000 trace);
      Table.cell_pct ~decimals:1
        (Locality.hit_ratio_for_capacity ~capacity:64 trace);
      Table.cell_pct ~decimals:1
        (Locality.hit_ratio_for_capacity ~capacity:256 trace) ]
  in
  let jobs_list =
    List.map
      (fun name ->
        ( name,
          fun () -> trace_row name (Locality.trace_of_program (compile name))
        ))
      [ "fact_iter"; "fib_rec"; "sieve"; "quicksort"; "dispatch";
        "flat_straightline" ]
    @ List.map
        (fun loc ->
          let label = Printf.sprintf "synthetic(locality=%.2f)" loc in
          ( label,
            fun () ->
              trace_row label
                (Tracegen.generate
                   { Tracegen.default with Tracegen.locality = loc;
                     length = 50_000 }) ))
        [ 0.5; 0.9; 0.99 ]
  in
  let fingerprint =
    [ "bench locality";
      "cells=" ^ String.concat "," (List.map fst jobs_list) ]
  in
  let rows =
    run_campaign ~target:"locality" ~fingerprint
      ~cells:(List.length jobs_list) (fun setup ->
        Sweep.map_supervised ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook
          (fun (_, job) -> job ())
          jobs_list)
  in
  List.iter2
    (fun (label, _) slot ->
      match slot with
      | Sweep.Completed r -> Table.add_row t r
      | Sweep.Quarantined q ->
          note_quarantine ~target:"locality" q;
          Table.add_row t [ label; "(quar)"; "-"; "-"; "-"; "-" ])
    jobs_list rows;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel, ns per run)";
  let open Bechamel in
  let open Toolkit in
  let p = compile "gcd" in
  let encoded = Codec.encode Kind.Huffman p in
  let code = Uhm_huffman.Code.of_frequencies (Array.init 40 (fun i -> i + 1)) in
  let contour_map = Uhm_dir.Program.contour_of_instr p in
  let digram_ctxs = Uhm_dir.Static_stats.digram_contexts p in
  let dtb = Dtb.create Dtb.paper_config ~buffer_base:0 in
  let counter = ref 0 in
  let test =
    Test.make_grouped ~name:"uhm"
      [
        Test.make ~name:"huffman-encode-100-symbols"
          (Staged.stage (fun () ->
               let w = Uhm_bitstream.Writer.create () in
               for i = 0 to 99 do
                 Uhm_huffman.Code.encode code w (i mod 40)
               done));
        Test.make ~name:"codec-decode-one-instruction"
          (Staged.stage (fun () ->
               ignore
                 (Codec.decode_at encoded ~contour:contour_map.(0)
                    ~digram_ctx:digram_ctxs.(0)
                    ~addr:encoded.Codec.offsets.(0))));
        Test.make ~name:"dtb-lookup-install"
          (Staged.stage (fun () ->
               incr counter;
               if Dtb.lookup_addr dtb ~tag:(!counter land 1023) < 0 then begin
                 Dtb.begin_translation dtb ~tag:(!counter land 1023);
                 ignore (Dtb.emit dtb 0);
                 ignore (Dtb.end_translation dtb)
               end));
        Test.make ~name:"encode-program-huffman"
          (Staged.stage (fun () -> ignore (Codec.encode Kind.Huffman p)));
        Test.make ~name:"machine-run-gcd-dtb"
          (Staged.stage (fun () ->
               ignore
                 (U.run_encoded ~strategy:(U.Dtb_strategy Dtb.paper_config)
                    encoded)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Table.create ~columns:[ ("benchmark", Table.Left); ("ns/run", Table.Right) ] ()
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> Table.cell_float est
        | _ -> "n/a"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Table.add_row t [ name; cell ])
    (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Host-side simulator throughput                                      *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Perf: host-side simulator throughput (wall clock, not simulated)";
  let min_runs = getenv_num "UHM_PERF_RUNS" int_of_string_opt 5 in
  let min_seconds = getenv_num "UHM_PERF_SECONDS" float_of_string_opt 0.2 in
  let samples =
    Uhm_core.Perf.run_suite ~min_runs ~min_seconds
      ~backends:[ `Decode; `Threaded ] ()
  in
  Uhm_core.Perf.print_report samples;
  let sweep =
    if Sys.getenv_opt "UHM_PERF_SWEEP" = Some "0" then None
    else begin
      let repeats = getenv_num "UHM_PERF_SWEEP_REPEATS" int_of_string_opt 2 in
      let sw = Uhm_core.Perf.measure_sweep ?domains:!jobs ~repeats () in
      Printf.printf
        "\nparallel sweep: %d points, %.3fs at 1 domain, %.3fs at %d \
         domains (speedup %.2fx, results %s)\n"
        sw.Uhm_core.Perf.sweep_points sw.Uhm_core.Perf.sweep_wall_1
        sw.Uhm_core.Perf.sweep_wall_n sw.Uhm_core.Perf.sweep_domains
        sw.Uhm_core.Perf.sweep_speedup
        (if sw.Uhm_core.Perf.sweep_identical then "identical"
         else "DIVERGENT");
      Some sw
    end
  in
  let path = bench_json_path () in
  Uhm_core.Perf.update_json ~samples ?sweep ~path ();
  Printf.printf "\nwrote %s (%d samples)\n" path (List.length samples)

(* ------------------------------------------------------------------ *)
(* Open-arrival load service: latency vs offered load (lib/serve)      *)
(* ------------------------------------------------------------------ *)

let load () =
  section
    "X13: open-arrival service -- sojourn percentiles vs offered load per \
     DTB sharing policy";
  let module LX = Uhm_serve.Experiment in
  let module Serve = Uhm_serve.Serve in
  let module Chaos = Uhm_serve.Chaos in
  let njobs = getenv_num "UHM_LOAD_JOBS" int_of_string_opt 400 in
  let seed = 1 and asid_slots = 8 and quantum = 64 in
  (* the light end of the suite (solo runs of 56k-118k cycles), so the
     default rates straddle the pool's ~10 jobs/Mcycle capacity *)
  let pool = [ "fact_iter"; "string_out"; "nested_scopes" ] in
  let policies = [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ] in
  let rates = LX.default_rates in
  (* queue bound >= arrivals: nothing is shed, so the tail of the sojourn
     distribution is never truncated and p99 stays monotone in load *)
  let admission = { Serve.queue_capacity = njobs; shed_above = None } in
  (* the plain service is the serving grid at fault rate 0 alone *)
  let axes =
    LX.resilience_axes ~quanta:[ quantum ] ~rates ~fault_rates:[ 0. ]
      ~policies ()
  in
  let fingerprint =
    [ "bench load"; "programs=" ^ String.concat "," pool;
      "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
      "rates=" ^ String.concat "," (List.map (Printf.sprintf "%h") rates);
      Printf.sprintf "jobs=%d" njobs; Printf.sprintf "seed=%d" seed;
      Printf.sprintf "slots=%d" asid_slots;
      Printf.sprintf "quantum=%d" quantum;
      Printf.sprintf "queue=%d" admission.Serve.queue_capacity;
      "cell=" ^ LX.cell_format ]
  in
  let grid =
    run_campaign ~target:"load" ~fingerprint
      ~cells:(List.length axes) (fun setup ->
        LX.resilience_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~quanta:[ quantum ] ~admission
          ~seed ~jobs:njobs ~slots:asid_slots ~kind:Kind.Huffman ~policies
          ~fault_rates:[ 0. ] ~rates ~config:Dtb.paper_config
          (List.map (fun name -> (name, compile name)) pool))
  in
  let t =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("rate/Mcyc", Table.Right);
          ("jobs", Table.Right); ("done", Table.Right);
          ("p50", Table.Right); ("p95", Table.Right); ("p99", Table.Right);
          ("qd p95", Table.Right); ("slowdown", Table.Right);
          ("thru/Mcyc", Table.Right); ("hit ratio", Table.Right) ]
      ()
  in
  let prev_policy = ref None in
  let points = ref [] in
  List.iter2
    (fun (policy, _, _, rate) slot ->
      (match !prev_policy with
      | Some p when p <> policy -> Table.add_rule t
      | _ -> ());
      prev_policy := Some policy;
      match slot with
      | Sweep.Quarantined q ->
          note_quarantine ~target:"load" q;
          Table.add_row t
            [ Dtb.policy_name policy; Printf.sprintf "%g" rate;
              "(quarantined)"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
      | Sweep.Completed (cell : LX.resilience_cell) ->
          let s = cell.LX.rc_result.Chaos.cv_serve.Serve.sv_summary in
          Table.add_row t
            [ Dtb.policy_name cell.LX.rc_policy;
              Printf.sprintf "%g" cell.LX.rc_rate;
              Table.cell_int s.Serve.s_jobs;
              Table.cell_int s.Serve.s_completed;
              Table.cell_int s.Serve.s_p50; Table.cell_int s.Serve.s_p95;
              Table.cell_int s.Serve.s_p99;
              Table.cell_int s.Serve.s_qd_p95;
              Printf.sprintf "%.2fx" s.Serve.s_mean_slowdown;
              Printf.sprintf "%.3f" s.Serve.s_throughput;
              Table.cell_pct ~decimals:2 s.Serve.s_hit_ratio ];
          points :=
            {
              Uhm_core.Perf.lp_policy = Dtb.policy_name cell.LX.rc_policy;
              lp_rate = cell.LX.rc_rate;
              lp_quantum = cell.LX.rc_quantum;
              lp_jobs = s.Serve.s_jobs;
              lp_completed = s.Serve.s_completed;
              lp_shed = s.Serve.s_shed;
              lp_throughput = s.Serve.s_throughput;
              lp_p50 = s.Serve.s_p50;
              lp_p95 = s.Serve.s_p95;
              lp_p99 = s.Serve.s_p99;
              lp_mean_slowdown = s.Serve.s_mean_slowdown;
            }
            :: !points)
    axes grid;
  Table.print t;
  let points = List.rev !points in
  (* the acceptance property of the curve: within each policy the points
     are recorded in rate order, and p99 must not fall as load rises *)
  let violations = ref 0 in
  List.iter
    (fun policy ->
      let name = Dtb.policy_name policy in
      let curve =
        List.filter (fun p -> p.Uhm_core.Perf.lp_policy = name) points
      in
      ignore
        (List.fold_left
           (fun prev p ->
             if p.Uhm_core.Perf.lp_p99 < prev then begin
               incr violations;
               Printf.eprintf
                 "bench: load: %s p99 fell from %d to %d at rate %g\n%!"
                 name prev p.Uhm_core.Perf.lp_p99 p.Uhm_core.Perf.lp_rate
             end;
             p.Uhm_core.Perf.lp_p99)
           min_int curve))
    policies;
  if !violations = 0 then
    print_endline
      "\np99 sojourn is monotone in offered load under every policy: below\n\
       the knee latency is a few service times, past it the queue -- not\n\
       the DTB -- dominates, and the policies separate by how much\n\
       translation capacity each slice can retain."
  else begin
    Printf.eprintf "bench: load: p99 curve is NOT monotone (%d dip(s))\n"
      !violations;
    incr quarantined_cells (* fail the run: the recorded curve is bad *)
  end;
  let path = bench_json_path () in
  Uhm_core.Perf.update_json
    ~load:
      { Uhm_core.Perf.load_seed = seed; load_slots = asid_slots;
        load_points = points }
    ~path ();
  Printf.printf "\nwrote %s (load section: %d points)\n" path
    (List.length points)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant serving                                              *)
(* ------------------------------------------------------------------ *)

let resilience () =
  section
    "X14: fault-tolerant serving -- SLO attainment, goodput and p99 \
     degradation vs injected fault rate";
  let module LX = Uhm_serve.Experiment in
  let module Chaos = Uhm_serve.Chaos in
  let module Serve = Uhm_serve.Serve in
  let module Arrival = Uhm_serve.Arrival in
  let njobs = getenv_num "UHM_RESILIENCE_JOBS" int_of_string_opt 150 in
  let seed = 1 and fault_seed = 4242 and asid_slots = 8 and quantum = 64 in
  let slo = 2_000_000 in
  (* both front ends in one pool, skewed heavy-tailed toward the light
     Algol template so most jobs are short and a few are long; service
     times run ~110k (fact_iter) to ~660k (ftn_sieve) cycles, putting
     pool capacity near 4.6 jobs/Mcycle -- the rates straddle the knee
     and the SLO bound is reachable by every template when unloaded *)
  let pool =
    [ ("fact_iter", compile "fact_iter");
      ("string_out", compile "string_out");
      ( "ftn_sieve",
        Uhm_ftn.Suite.compile ~fuse:false (Uhm_ftn.Suite.find "ftn_sieve") )
    ]
  in
  let weights = Arrival.heavy_tailed ~templates:3 ~heavy:[ (0, 4.0) ] in
  let policies = [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ] in
  let fault_rates = LX.default_fault_rates in
  let rates = [ 2.0; 6.0 ] in
  (* corrupted attempts can loop; the fuel bound is far above any
     template's solo cost, so it only fires on genuinely wedged runs *)
  let cell_fuel = 4_000_000 in
  let admission = { Serve.queue_capacity = njobs; shed_above = None } in
  let axes =
    LX.resilience_axes ~quanta:[ quantum ] ~rates ~fault_rates ~policies ()
  in
  let fingerprint =
    [ "bench resilience";
      "programs=" ^ String.concat "," (List.map fst pool);
      "weights=" ^ Arrival.weights_name (Some weights);
      "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
      "fault_rates="
      ^ String.concat "," (List.map (Printf.sprintf "%h") fault_rates);
      "rates=" ^ String.concat "," (List.map (Printf.sprintf "%h") rates);
      Printf.sprintf "jobs=%d" njobs; Printf.sprintf "seed=%d" seed;
      Printf.sprintf "fault_seed=%d" fault_seed;
      Printf.sprintf "slots=%d" asid_slots;
      Printf.sprintf "quantum=%d" quantum; Printf.sprintf "slo=%d" slo;
      Printf.sprintf "fuel=%d" cell_fuel;
      Printf.sprintf "queue=%d" admission.Serve.queue_capacity ]
  in
  let grid =
    run_campaign ~target:"resilience" ~fingerprint
      ~cells:(List.length axes) (fun setup ->
        LX.resilience_grid_slots ?domains:!jobs ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook ~quanta:[ quantum ] ~admission
          ~cell_fuel ~weights ~deadline:slo ~fault_seed ~seed ~jobs:njobs
          ~slots:asid_slots ~kind:Kind.Huffman ~policies ~fault_rates ~rates
          ~config:Dtb.paper_config pool)
  in
  (* the fault-free control column, keyed by (policy, quantum, rate):
     the denominator of every p99-degradation ratio *)
  let baseline_p99 =
    List.filter_map
      (fun slot ->
        match slot with
        | Sweep.Completed (cell : LX.resilience_cell)
          when cell.LX.rc_fault_rate = 0.0 ->
            Some
              ( (cell.LX.rc_policy, cell.LX.rc_quantum, cell.LX.rc_rate),
                cell.LX.rc_result.Chaos.cv_serve.Serve.sv_summary.Serve.s_p99
              )
        | _ -> None)
      grid
  in
  let t =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("frate", Table.Right);
          ("rate/Mcyc", Table.Right); ("jobs", Table.Right);
          ("done", Table.Right); ("failed", Table.Right);
          ("shed", Table.Right); ("attain", Table.Right);
          ("goodput", Table.Right); ("inj", Table.Right);
          ("det", Table.Right); ("retries", Table.Right);
          ("p99", Table.Right); ("p99x", Table.Right) ]
      ()
  in
  let prev_policy = ref None in
  let points = ref [] in
  List.iter2
    (fun (policy, _quantum, fault_rate, rate) slot ->
      (match !prev_policy with
      | Some p when p <> policy -> Table.add_rule t
      | _ -> ());
      prev_policy := Some policy;
      match slot with
      | Sweep.Quarantined q ->
          note_quarantine ~target:"resilience" q;
          Table.add_row t
            [ Dtb.policy_name policy; Printf.sprintf "%g" fault_rate;
              Printf.sprintf "%g" rate; "(quarantined)"; "-"; "-"; "-";
              "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
      | Sweep.Completed (cell : LX.resilience_cell) ->
          let s = cell.LX.rc_result.Chaos.cv_serve.Serve.sv_summary in
          let cs = cell.LX.rc_result.Chaos.cv_summary in
          let degradation =
            match
              List.assoc_opt
                (cell.LX.rc_policy, cell.LX.rc_quantum, cell.LX.rc_rate)
                baseline_p99
            with
            | Some base when base > 0 ->
                float_of_int s.Serve.s_p99 /. float_of_int base
            | _ -> 1.0
          in
          Table.add_row t
            [ Dtb.policy_name cell.LX.rc_policy;
              Printf.sprintf "%g" cell.LX.rc_fault_rate;
              Printf.sprintf "%g" cell.LX.rc_rate;
              Table.cell_int s.Serve.s_jobs;
              Table.cell_int s.Serve.s_completed;
              Table.cell_int s.Serve.s_failed;
              Table.cell_int s.Serve.s_shed;
              Printf.sprintf "%.3f" cs.Chaos.cs_attainment;
              Printf.sprintf "%.3f" cs.Chaos.cs_goodput;
              Table.cell_int cs.Chaos.cs_injected;
              Table.cell_int cs.Chaos.cs_detected;
              Table.cell_int cs.Chaos.cs_job_retries;
              Table.cell_int s.Serve.s_p99;
              Printf.sprintf "%.3fx" degradation ];
          points :=
            {
              Uhm_core.Perf.rp_policy = Dtb.policy_name cell.LX.rc_policy;
              rp_fault_rate = cell.LX.rc_fault_rate;
              rp_rate = cell.LX.rc_rate;
              rp_quantum = cell.LX.rc_quantum;
              rp_jobs = s.Serve.s_jobs;
              rp_completed = s.Serve.s_completed;
              rp_failed = s.Serve.s_failed;
              rp_shed = s.Serve.s_shed;
              rp_slo_attainment = cs.Chaos.cs_attainment;
              rp_goodput = cs.Chaos.cs_goodput;
              rp_injected = cs.Chaos.cs_injected;
              rp_detected = cs.Chaos.cs_detected;
              rp_job_retries = cs.Chaos.cs_job_retries;
              rp_p99 = s.Serve.s_p99;
              rp_p99_degradation = degradation;
            }
            :: !points)
    axes grid;
  Table.print t;
  let points = List.rev !points in
  (* the control column must be clean: no injections, no failures *)
  let dirty_control =
    List.filter
      (fun p ->
        p.Uhm_core.Perf.rp_fault_rate = 0.0
        && (p.Uhm_core.Perf.rp_injected > 0
           || p.Uhm_core.Perf.rp_failed > 0))
      points
  in
  if dirty_control = [] then
    print_endline
      "\nno wrong answers at any campaign point: every accepted completion\n\
       matched its fault-free solo run (the supervised grid quarantines\n\
       any cell violating this).  Fault-rate-0 columns are the control --\n\
       zero injections, zero failures -- and the p99x column prices the\n\
       tail-latency cost of surviving each fault rate."
  else begin
    Printf.eprintf
      "bench: resilience: %d control cell(s) saw injections or failures\n"
      (List.length dirty_control);
    incr quarantined_cells
  end;
  let path = bench_json_path () in
  Uhm_core.Perf.update_json
    ~resilience:
      { Uhm_core.Perf.res_seed = seed; res_slots = asid_slots; res_slo = slo;
        res_points = points }
    ~path ();
  Printf.printf "\nwrote %s (resilience section: %d points)\n" path
    (List.length points)

(* ------------------------------------------------------------------ *)
(* Fault injection and recovery                                        *)
(* ------------------------------------------------------------------ *)

let faults () =
  section
    "X12: fault injection and recovery -- overhead vs fault rate per DTB \
     policy";
  let module FI = Uhm_fault.Injector in
  let module FE = Uhm_fault.Experiment in
  let programs =
    List.map
      (fun name -> (name, compile name))
      [ "fact_iter"; "gcd"; "flat_straightline" ]
  in
  let policies = [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ] in
  let axes =
    FE.fault_axes ~quanta:[ 64 ] ~classes:FI.all_classes
      ~rates:FE.default_rates ~policies ~configs:[ Dtb.paper_config ] ()
  in
  let fingerprint =
    [ "bench faults";
      "programs=" ^ String.concat "," (List.map fst programs);
      "classes="
      ^ String.concat "," (List.map FI.class_name FI.all_classes);
      "rates="
      ^ String.concat "," (List.map (Printf.sprintf "%h") FE.default_rates);
      "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
      "quantum=64"; "seed=1" ]
  in
  let slots =
    run_campaign ~target:"faults" ~fingerprint
      ~cells:(List.length axes) (fun setup ->
        FE.fault_grid_slots ?domains:!jobs ~quanta:[ 64 ]
          ~cached:setup.Campaign.cached ?cell_hook:setup.Campaign.cell_hook
          ~kind:Kind.Huffman ~classes:FI.all_classes ~rates:FE.default_rates
          ~policies ~configs:[ Dtb.paper_config ] programs)
  in
  let grid =
    List.filter_map
      (function Sweep.Completed p -> Some p | Sweep.Quarantined _ -> None)
      slots
  in
  let t =
    Table.create
      ~columns:
        [ ("class", Table.Left); ("rate", Table.Right);
          ("policy", Table.Left); ("overhead", Table.Right);
          ("injected", Table.Right); ("detected", Table.Right);
          ("retries", Table.Right); ("rollbacks", Table.Right);
          ("downgrades", Table.Right); ("recovered", Table.Left) ]
      ()
  in
  let prev_class = ref None in
  List.iter2
    (fun (cls, rate, policy, _, _) slot ->
      (match !prev_class with
      | Some c when c <> cls -> Table.add_rule t
      | _ -> ());
      prev_class := Some cls;
      match slot with
      | Sweep.Quarantined q ->
          note_quarantine ~target:"faults" q;
          Table.add_row t
            [ FI.class_name cls; Printf.sprintf "%g" rate;
              Dtb.policy_name policy; "-"; "-"; "-"; "-"; "-"; "-";
              "(quarantined)" ]
      | Sweep.Completed (p : FE.point) ->
          Table.add_row t
            [ FI.class_name p.FE.fp_class;
              Printf.sprintf "%g" p.FE.fp_rate;
              Dtb.policy_name p.FE.fp_policy;
              Printf.sprintf "%.4fx" p.FE.fp_overhead;
              Table.cell_int p.FE.fp_injected;
              Table.cell_int p.FE.fp_detected;
              Table.cell_int p.FE.fp_retries;
              Table.cell_int p.FE.fp_rollbacks;
              Table.cell_int p.FE.fp_downgrades;
              (if p.FE.fp_recovered_ok then "yes" else "FAILED") ])
    axes slots;
  Table.print t;
  let bad = List.filter (fun (p : FE.point) -> not p.FE.fp_recovered_ok) grid in
  if bad = [] && List.length grid = List.length slots then
    Printf.printf
      "\nrecovery invariant holds at all %d campaign points: every faulty\n\
       run converged to the fault-free architectural state.  Rate-0 rows\n\
       price the pure guard overhead (t_guard per verified hit); mem-word\n\
       rows add checkpoint and rollback-replay costs; downgraded programs\n\
       fall back to pure DIR interpretation, the section-7 crossover\n\
       baseline.\n"
      (List.length grid)
  else
    Printf.printf "\nRECOVERY FAILED at %d of %d campaign points\n"
      (List.length bad + (List.length slots - List.length grid))
      (List.length slots)

let targets : (string * (unit -> unit)) list =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("figure1", figure1); ("figure2", figure2); ("figure3", figure3);
    ("figure4", figure4); ("model-vs-sim", model_vs_sim);
    ("encodings", encodings); ("assoc", assoc); ("alloc", alloc);
    ("crossover", crossover); ("assist", assist); ("blocks", blocks);
    ("languages", languages); ("summary", summary); ("datapath", datapath);
    ("levels", levels); ("mix", mix); ("faults", faults);
    ("locality", locality); ("micro", micro); ("perf", perf);
    ("load", load); ("resilience", resilience);
  ]

let () =
  let set_jobs n =
    match int_of_string_opt n with
    | Some d when d > 0 -> jobs := Some d
    | _ ->
        prerr_endline "bench: -j expects a positive integer";
        exit 2
  in
  (* strip -j N / -jN / --journal PATH / --resume PATH, leaving targets *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--journal" :: path :: rest ->
        journal_path := Some path;
        parse_args acc rest
    | "--resume" :: path :: rest ->
        resume_path := Some path;
        parse_args acc rest
    | ("--journal" | "--resume") :: [] ->
        prerr_endline "bench: --journal/--resume expect a file path";
        exit 2
    | "-j" :: n :: rest ->
        set_jobs n;
        parse_args acc rest
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" ->
        set_jobs (String.sub arg 2 (String.length arg - 2));
        parse_args acc rest
    | arg :: rest -> parse_args (arg :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match names with
    | _ :: _ when not (List.mem "all" names) -> names
    | _ ->
        List.map fst
          (List.filter
             (fun (n, _) ->
               n <> "micro" && n <> "perf" && n <> "load"
               && n <> "resilience")
             targets)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown bench target %s; available: %s\n" name
            (String.concat ", " (List.map fst targets));
          exit 1)
    requested;
  if !quarantined_cells > 0 then begin
    Printf.eprintf "bench: %d cell(s) quarantined; reports above are \
                    complete except for the marked rows\n"
      !quarantined_cells;
    exit 1
  end
