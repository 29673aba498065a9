(* uhmc — the universal host machine driver.

   Subcommands:
     compile     parse, check and compile Algol-S to DIR; print the listing
     run         execute a program under a chosen strategy and encoding
     encode      show the program's size under every encoding
     trace       locality statistics of the program's instruction trace
     calibrate   measure the paper's cost parameters from simulation
     suite       list the built-in benchmark programs
     perf        measure host-side simulator throughput; update BENCH json
     mix         time-slice several programs over one shared DTB
     load        serve an open stream of arriving jobs under load
     serve-chaos serve under seeded fault injection, deadlines and retries
     faults      fault-injection campaign over the resilience subsystem
     campaign    maintenance of crash-safe campaign journals *)

open Cmdliner
module Table = Uhm_report.Table
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite
module Locality = Uhm_workload.Locality
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Sweep = Uhm_core.Sweep
module Machine = Uhm_machine.Machine
module Asm = Uhm_machine.Asm
module Campaign = Uhm_campaign.Campaign
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace

(* -- campaign plumbing shared by mix, load, serve-chaos and faults ---------- *)

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"PATH"
           ~doc:"Record every completed cell to an fsync'd append-only \
                 JSON-lines journal at $(docv); combined with \
                 $(b,--resume) the campaign survives a mid-run kill.")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"PATH"
           ~doc:"Serve already-journaled cells from $(docv) instead of \
                 recomputing them.  The journal must have been written by \
                 the same campaign configuration (fingerprint-checked; a \
                 mismatch is a hard error, exit 2).  A non-existent file \
                 starts fresh, so $(b,--journal F --resume F) can be \
                 re-run until the campaign completes.")

let cell_fuel_arg =
  Arg.(value & opt (some int) None
       & info [ "cell-fuel" ] ~docv:"N"
           ~doc:"Deterministic per-cell step budget: each simulated \
                 machine in a cell gets $(docv) cycles of fuel; a cell \
                 that exhausts it fails and is quarantined after the \
                 retry budget, instead of wedging the campaign.")

(* A malformed grid value is malformed input: rejected with a diagnostic
   and exit 2 before any journal is written, instead of failing every
   cell until the campaign quarantines it. *)
let config_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "uhmc: error: %s\n" msg;
      exit 2)
    fmt

let at_least_one flag arg =
  Term.(
    const (fun n ->
        if n < 1 then config_error "%s must be >= 1, got %d" flag n else n)
    $ arg)

(* One campaign run with CLI error handling: an unusable resume journal
   is malformed input (exit 2), like any other bad file we are given. *)
let run_campaign ?journal ?resume ~campaign ~fingerprint ~cells grid =
  match
    Campaign.run ?journal ?resume ~campaign ~fingerprint ~cells (fun setup ->
        if setup.Campaign.resumed > 0 then
          Printf.eprintf "uhmc: resuming: %d of %d cells served from %s\n%!"
            setup.Campaign.resumed cells
            (Option.value ~default:"-" resume);
        grid setup)
  with
  | result -> result
  | exception Campaign.Mismatch msg ->
      Printf.eprintf "uhmc: error: %s\n" msg;
      exit 2

(* Print a campaign's table: [rows axis v] for each completed cell and,
   for a quarantined one, a placeholder row — its axis [labels], then
   "(quarantined)", then "-" up to the table width.  Returns the check
   to run once the rest of the report is out: one stderr line per
   quarantined cell, named by [describe], then exit 1. *)
let print_campaign_table ~columns ~labels ~describe ~rows axes slots =
  let t = Table.create ~columns () in
  let quarantined =
    List.concat
      (List.map2
         (fun axis -> function
           | Sweep.Completed v ->
               List.iter (Table.add_row t) (rows axis v);
               []
           | Sweep.Quarantined q ->
               let labels = labels axis in
               Table.add_row t
                 (labels @ "(quarantined)"
                  :: List.init
                       (List.length columns - List.length labels - 1)
                       (fun _ -> "-"));
               [ (describe axis, q) ])
         axes slots)
  in
  Table.print t;
  fun () ->
    List.iter
      (fun (what, (q : Sweep.quarantine)) ->
        Printf.eprintf
          "uhmc: cell %d (%s) quarantined after %d attempt(s): %s\n"
          q.Sweep.q_index what q.Sweep.q_attempts q.Sweep.q_reason)
      quarantined;
    if quarantined <> [] then exit 1

(* Write one cell's Chrome trace_event JSON; [suffix], when the grid has
   several cells, is inserted before the extension of [path]. *)
let write_trace ~path ~suffix ~names ~end_cycle trace =
  let path =
    match suffix with
    | None -> path
    | Some s ->
        Printf.sprintf "%s.%s%s" (Filename.remove_extension path) s
          (Filename.extension path)
  in
  let oc = open_out path in
  output_string oc (Trace.to_chrome ~names ~end_cycle trace);
  close_out oc;
  Printf.printf "wrote %s (%d events, %d dropped)\n" path
    (min (Trace.recorded trace) (Trace.capacity trace))
    (Trace.dropped trace)

(* -- flags shared by the multiprogramming subcommands -------------------------- *)

let policy_conv =
  let parse = function
    | "flush" -> Ok Dtb.Flush_on_switch
    | "tagged" -> Ok Dtb.Tagged
    | "partitioned" -> Ok Dtb.Partitioned
    | s -> Error (`Msg (Printf.sprintf "unknown policy %s" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Dtb.policy_name p))

let policies_arg =
  Arg.(value & opt_all policy_conv []
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Shared-DTB ownership policy: flush, tagged, partitioned \
                 (repeatable; default all three).")

let scheduler_conv =
  let parse = function
    | "rr" -> Ok Scheduler.Round_robin
    | "srtf" -> Ok Scheduler.Shortest_remaining
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %s" s))
  in
  Arg.conv
    (parse, fun fmt s -> Format.pp_print_string fmt (Scheduler.policy_name s))

let scheduler_arg =
  Arg.(value & opt scheduler_conv Scheduler.Round_robin
       & info [ "scheduler" ] ~docv:"SCHED"
           ~doc:"rr (round-robin) or srtf (shortest remaining dir_steps \
                 first).")

(* --sets and --assoc, checked and combined into the DTB geometry *)
let dtb_config_arg =
  let sets_arg =
    Arg.(value & opt int Dtb.paper_config.Dtb.sets
         & info [ "sets" ] ~docv:"N" ~doc:"DTB set count (power of two).")
  in
  let assoc_arg =
    Arg.(value & opt int Dtb.paper_config.Dtb.assoc
         & info [ "assoc" ] ~docv:"N" ~doc:"DTB ways per set.")
  in
  let config sets assoc =
    if sets < 1 || sets land (sets - 1) <> 0 then
      config_error "--sets must be a power of two, got %d" sets
    else if assoc < 0 then config_error "--assoc must be >= 0, got %d" assoc
    else { Dtb.paper_config with Dtb.sets; assoc }
  in
  Term.(const config $ sets_arg $ assoc_arg)

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domain count for the sweep pool (default: $(b,UHM_JOBS) \
                 or the recommended domain count).")

let quantum_arg =
  at_least_one "--quantum"
    Arg.(value & opt int 64
         & info [ "q"; "quantum" ] ~docv:"N"
             ~doc:"Scheduling quantum in DIR instructions.")

let slots_arg default =
  at_least_one "--slots"
    Arg.(value & opt int default
         & info [ "slots" ] ~docv:"N"
             ~doc:"ASID slots (resident-tenant cap; under partitioned at \
                   most the set count).")

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N" ~doc:"Arrival-stream seed.")

let queue_cap_arg =
  at_least_one "--queue-cap"
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Admission-queue capacity; arrivals beyond it are shed \
                   (drop-tail).")

let poison_arg =
  Arg.(value & opt_all int []
       & info [ "poison-cell" ] ~docv:"IDX"
           ~doc:"Testing aid for the quarantine path: make the cell at \
                 index $(docv) fail on every attempt.")

let fuel_name = function None -> "none" | Some f -> string_of_int f

(* -- program sources --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  source

(* Resolve to a compiled DIR program: an Algol-S or Fortran-S file, or a
   built-in program from either suite (Fortran-S names start with ftn_). *)
let load_dir_exn ~file ~program ~fortran ~fuse =
  match (file, program) with
  | Some path, None ->
      let name = Filename.basename path in
      if fortran then Uhm_ftn.Codegen.compile_source ~name ~fuse (read_file path)
      else
        Uhm_compiler.Pipeline.compile ~fuse
          (Uhm_hlr.Parser.parse ~name (read_file path))
  | None, Some name -> (
      match Suite.find name with
      | entry -> Suite.compile ~fuse entry
      | exception Not_found -> Uhm_ftn.Suite.compile ~fuse (Uhm_ftn.Suite.find name))
  | _ ->
      prerr_endline "uhmc: error: exactly one of FILE or --program NAME is required";
      exit 2

(* A malformed input file is a user error, not a crash: every frontend
   exception becomes a one-line stderr diagnostic and exit code 2. *)
let load_dir ~file ~program ~fortran ~fuse =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "uhmc: error: %s\n" m; exit 2) fmt in
  try load_dir_exn ~file ~program ~fortran ~fuse with
  | Uhm_hlr.Lexer.Lex_error (msg, line, col) ->
      fail "%s at line %d, column %d" msg line col
  | Uhm_hlr.Parser.Parse_error (msg, line, col) ->
      fail "%s at line %d, column %d" msg line col
  | Uhm_ftn.Lexer.Lex_error (msg, line) -> fail "%s at line %d" msg line
  | Uhm_ftn.Parser.Parse_error (msg, line) -> fail "%s at line %d" msg line
  | Uhm_hlr.Check.Check_error msg
  | Uhm_ftn.Check.Check_error msg
  | Uhm_compiler.Codegen.Codegen_error msg
  | Uhm_ftn.Codegen.Codegen_error msg ->
      fail "%s" msg
  | Not_found -> (
      match program with
      | Some name -> fail "unknown built-in program %s; see `uhmc suite`" name
      | None -> fail "program not found")
  | Sys_error msg -> fail "%s" msg

(* Built-in programs by name (either suite), as a campaign's program mix. *)
let load_programs ~fuse names =
  List.map
    (fun name ->
      (name, load_dir ~file:None ~program:(Some name) ~fortran:false ~fuse))
    names

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Algol-S source file.")

let program_arg =
  Arg.(value & opt (some string) None
       & info [ "p"; "program" ] ~docv:"NAME"
           ~doc:"Use a built-in suite program instead of a file.")

let fortran_arg =
  Arg.(value & flag
       & info [ "fortran" ]
           ~doc:"Treat FILE as Fortran-S instead of Algol-S (built-in \
                 programs pick their language by name).")

let fuse_arg =
  Arg.(value & flag
       & info [ "fuse" ] ~doc:"Apply superoperator fusion (raises the DIR's semantic level).")

let kind_conv =
  let parse s =
    try Ok (Kind.of_name s)
    with Invalid_argument _ ->
      Error (`Msg (Printf.sprintf "unknown encoding %s" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Kind.name k))

let kind_arg =
  Arg.(value & opt kind_conv Kind.Packed
       & info [ "k"; "kind" ] ~docv:"KIND"
           ~doc:"Static encoding: word16, packed, contextual, huffman, huffman-b1700, digram.")

let strategy_conv =
  let parse = function
    | "interp" -> Ok U.Interp
    | "cached" -> Ok (U.Cached 4096)
    | "dtb" -> Ok (U.Dtb_strategy Dtb.paper_config)
    | "dtb-blocks" ->
        Ok
          (U.Dtb_blocks
             ( { Dtb.sets = 32; assoc = 4; unit_words = 16;
                 overflow_blocks = 256 },
               8 ))
    | "dtb2" -> Ok (U.Dtb_two_level (Dtb.paper_config, 2048))
    | "psder" -> Ok U.Psder_static
    | "der" -> Ok (U.Der U.Der_level1)
    | "der-l2" -> Ok (U.Der U.Der_level2)
    | "der-cached" -> Ok (U.Der (U.Der_level2_cached 4096))
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %s" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (U.strategy_name s))

let strategy_arg =
  Arg.(value & opt strategy_conv (U.Dtb_strategy Dtb.paper_config)
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Execution strategy: interp, cached, dtb, dtb-blocks, dtb2, \
                 psder, der, der-l2, der-cached.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

let single_backend_conv =
  let parse = function
    | "decode" -> Ok `Decode
    | "threaded" -> Ok `Threaded
    | s -> Error (`Msg (Printf.sprintf "unknown backend %s (decode, threaded)" s))
  in
  Arg.conv
    ( parse,
      fun fmt b ->
        Format.pp_print_string fmt
          (match b with `Decode -> "decode" | `Threaded -> "threaded") )

let backend_arg =
  Arg.(value & opt single_backend_conv `Decode
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Host execution backend: decode (per-word fetch+decode) or \
                 threaded (closure-compiled direct threading). Simulated \
                 results are identical; only host wall-clock differs.")

(* -- compile ------------------------------------------------------------------ *)

let compile_cmd =
  let action file program fortran fuse =
    let p = load_dir ~file ~program ~fortran ~fuse in
    print_string (Uhm_dir.Program.listing p);
    Printf.printf "\n%d instructions, %d contours\n"
      (Uhm_dir.Program.size_instructions p)
      (Array.length p.Uhm_dir.Program.contours)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile Algol-S or Fortran-S to DIR and print the listing.")
    Term.(const action $ file_arg $ program_arg $ fortran_arg $ fuse_arg)

(* -- run ---------------------------------------------------------------------- *)

let run_cmd =
  let fuel_arg =
    Arg.(value & opt (some int) None
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Cycle budget: a program still running after $(docv) \
                   cycles is killed as a runaway and uhmc exits with \
                   code 3 (default 2e9).")
  in
  let action file program fortran fuse kind strategy backend stats fuel =
    let p = load_dir ~file ~program ~fortran ~fuse in
    let r = U.run ?fuel ~backend ~strategy ~kind p in
    print_string r.U.output;
    (match r.U.status with
    | Machine.Halted -> ()
    | Machine.Trapped m ->
        Printf.eprintf "trap: %s\n" m;
        exit 1
    | Machine.Out_of_fuel ->
        (* the runaway-program guard: a distinct exit code so scripts can
           tell "looped forever" from "trapped" *)
        Printf.eprintf
          "uhmc: out of fuel after %d cycles (runaway program? raise --fuel)\n"
          r.U.cycles;
        exit 3
    | Machine.Running -> assert false);
    if stats then begin
      let s = r.U.machine_stats in
      let cat c = s.Machine.cat_cycles.(Machine.category_index c) in
      Printf.eprintf
        "strategy         %s\n\
         encoding         %s\n\
         dir instructions %d\n\
         cycles           %d (%.2f per instruction)\n\
         dir fetch        %d\n\
         decode (d)       %d\n\
         semantic (x)     %d\n\
         translate (g)    %d\n\
         static size      %d bits (%.1f bits/instr)\n"
        (U.strategy_name strategy) (Kind.name kind) r.U.dir_steps r.U.cycles
        (U.cycles_per_dir_instruction r)
        s.Machine.dir_fetch_cycles (cat Asm.Decode) (cat Asm.Semantic)
        (cat Asm.Translate) r.U.static_size_bits
        (float_of_int r.U.static_size_bits /. float_of_int
           (max 1 (Uhm_dir.Program.size_instructions p)));
      match r.U.dtb_hit_ratio with
      | Some h ->
          Printf.eprintf "dtb hit ratio    %.4f (%d misses, %d evictions)\n" h
            (Option.value ~default:0 r.U.dtb_misses)
            (Option.value ~default:0 r.U.dtb_evictions)
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a program on the simulated universal host machine.")
    Term.(
      const action $ file_arg $ program_arg $ fortran_arg $ fuse_arg
      $ kind_arg $ strategy_arg $ backend_arg $ stats_arg $ fuel_arg)

(* -- encode ------------------------------------------------------------------- *)

let encode_cmd =
  let action file program fortran fuse =
    let p = load_dir ~file ~program ~fortran ~fuse in
    let t =
      Table.create
        ~columns:
          [ ("encoding", Table.Left); ("bits", Table.Right);
            ("bits/instr", Table.Right); ("vs word16", Table.Right) ]
        ()
    in
    let word16 = (Codec.encode Kind.Word16 p).Codec.size_bits in
    List.iter
      (fun kind ->
        let e = Codec.encode kind p in
        Table.add_row t
          [ Kind.name kind;
            Table.cell_int e.Codec.size_bits;
            Table.cell_float (Codec.bits_per_instruction e);
            Table.cell_pct ~decimals:1
              (1. -. (float_of_int e.Codec.size_bits /. float_of_int word16)) ])
      Kind.all;
    Table.print t
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Show the program's size under every encoding.")
    Term.(const action $ file_arg $ program_arg $ fortran_arg $ fuse_arg)

(* -- trace -------------------------------------------------------------------- *)

let trace_cmd =
  let action file program fortran fuse =
    let p = load_dir ~file ~program ~fortran ~fuse in
    let trace = Locality.trace_of_program p in
    Printf.printf "references        %d\n" (Array.length trace);
    Printf.printf "footprint         %d instructions\n" (Locality.footprint trace);
    Printf.printf "avg working set   %.1f (window 1000)\n"
      (Locality.average_working_set ~window:1000 trace);
    List.iter
      (fun cap ->
        Printf.printf "LRU(%4d) hit     %.2f%%\n" cap
          (100. *. Locality.hit_ratio_for_capacity ~capacity:cap trace))
      [ 16; 64; 256; 1024 ]
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Locality statistics of the program's dynamic instruction trace.")
    Term.(const action $ file_arg $ program_arg $ fortran_arg $ fuse_arg)

(* -- calibrate ----------------------------------------------------------------- *)

let calibrate_cmd =
  let action file program fortran fuse kind =
    let p = load_dir ~file ~program ~fortran ~fuse in
    let m = Uhm_core.Experiment.measure ~kind ~name:"program" p in
    let c = Uhm_core.Experiment.calibrate m in
    let params = Uhm_core.Experiment.params_of c in
    let module Model = Uhm_perfmodel.Model in
    let module E = Uhm_core.Experiment in
    Printf.printf
      "measured parameters (per DIR instruction, %s encoding):\n\
      \  d   (decode+dispatch)   %8.2f cycles\n\
      \  x   (semantic routines) %8.2f cycles\n\
      \  g   (generation/miss)   %8.2f cycles\n\
      \  s1  (short words)       %8.2f\n\
      \  s2  (DIR units fetched) %8.2f\n\
      \  h_c (icache hit ratio)  %8.4f\n\
      \  h_D (DTB hit ratio)     %8.4f\n\n"
      (Kind.name kind) c.E.c_d c.E.c_x c.E.c_g c.E.c_s1 c.E.c_s2 c.E.c_h_c
      c.E.c_h_d;
    Printf.printf
      "analytic model at these parameters vs simulation:\n\
      \  T1 (interp)  model %8.2f   sim %8.2f\n\
      \  T3 (icache)  model %8.2f   sim %8.2f\n\
      \  T2 (DTB)     model %8.2f   sim %8.2f\n\
      \  F2 = (T1-T2)/T2 = %.1f%%\n"
      (Model.t1 params)
      (U.cycles_per_dir_instruction m.E.interp)
      (Model.t3 params)
      (U.cycles_per_dir_instruction m.E.cached)
      (Model.t2 params)
      (U.cycles_per_dir_instruction m.E.dtb)
      (Model.f2 params)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Measure the paper's cost parameters (d, g, x, s1, s2, h_c, h_D)              from simulation and evaluate the analytic model with them.")
    Term.(const action $ file_arg $ program_arg $ fortran_arg $ fuse_arg
          $ kind_arg)

(* -- perf --------------------------------------------------------------------- *)

let perf_cmd =
  let runs_arg =
    Arg.(value & opt int 5
         & info [ "runs" ] ~docv:"N"
             ~doc:"Minimum timed runs per workload/strategy sample.")
  in
  let seconds_arg =
    Arg.(value & opt float 0.2
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Minimum seconds of timed runs per sample.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"PATH"
             ~doc:"Also record the samples (and the sweep timing, with \
                   $(b,--sweep)) in the BENCH_simulator.json-format \
                   document at $(docv).  An existing document is updated \
                   in place: its other sections are kept.")
  in
  let workloads_arg =
    Arg.(value & opt_all string []
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload to measure (repeatable); default is the \
                   representative set.")
  in
  let programs_arg =
    Arg.(value & opt (some string) None
         & info [ "programs" ] ~docv:"A,B,C"
             ~doc:"Comma-separated list of workloads to measure; same as \
                   repeating $(b,--workload).")
  in
  let backends_arg =
    let backend_conv =
      let parse = function
        | "decode" -> Ok [ `Decode ]
        | "threaded" -> Ok [ `Threaded ]
        | "both" -> Ok [ `Decode; `Threaded ]
        | s ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown backend %s (decode, threaded, both)" s))
      in
      Arg.conv
        ( parse,
          fun fmt bs ->
            Format.pp_print_string fmt
              (String.concat ","
                 (List.map Uhm_core.Perf.backend_name bs)) )
    in
    Arg.(value & opt backend_conv [ `Decode ]
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Host execution backend to measure: decode (the classic \
                   fetch-decode loop), threaded (closure-compiled \
                   direct-threaded), or both (also records the schema-v3 \
                   backend speedup section in the JSON output).")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domain count for the parallel-sweep benchmark (default: \
                   $(b,UHM_JOBS) or the recommended domain count).")
  in
  let sweep_arg =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"Also time the whole-suite summary sweep at 1 and N \
                   domains and record it in the JSON output.")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"PATH"
             ~doc:"Compare against a previously written \
                   BENCH_simulator.json and exit non-zero if any sample's \
                   host-relative throughput regressed past \
                   $(b,--max-regression) percent.")
  in
  let max_regression_arg =
    Arg.(value & opt float 30.
         & info [ "max-regression" ] ~docv:"PCT"
             ~doc:"Allowed relative-throughput drop per sample, percent \
                   (with $(b,--baseline)).")
  in
  let action min_runs min_seconds out workloads programs backends jobs sweep
      baseline max_regression =
    let module Perf = Uhm_core.Perf in
    let workloads =
      workloads
      @ (match programs with
        | None -> []
        | Some s ->
            List.filter
              (fun w -> w <> "")
              (List.map String.trim (String.split_on_char ',' s)))
    in
    let workloads = if workloads = [] then Perf.default_workloads else workloads in
    (match
       List.filter
         (fun w -> not (List.exists (( = ) w) (Uhm_workload.Suite.names ())))
         workloads
     with
    | [] -> ()
    | unknown ->
        Printf.eprintf "uhmc: unknown workload%s %s; see `uhmc suite`\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown);
        exit 1);
    let samples = Perf.run_suite ~workloads ~min_runs ~min_seconds ~backends () in
    Perf.print_report samples;
    let sweep_bench =
      if not sweep then None
      else begin
        let sw = Perf.measure_sweep ?domains:jobs () in
        Printf.printf
          "parallel sweep: %d points, %.3fs at 1 domain, %.3fs at %d \
           domains (speedup %.2fx, results %s)\n"
          sw.Perf.sweep_points sw.Perf.sweep_wall_1 sw.Perf.sweep_wall_n
          sw.Perf.sweep_domains sw.Perf.sweep_speedup
          (if sw.Perf.sweep_identical then "identical" else "DIVERGENT");
        Some sw
      end
    in
    (match out with
    | Some path ->
        (try Perf.update_json ~samples ?sweep:sweep_bench ~path () with
        | Sys_error msg | Perf.Json_error msg ->
            Printf.eprintf "uhmc: cannot update %s: %s\n" path msg;
            exit 1);
        Printf.printf "wrote %s (%d samples)\n" path (List.length samples)
    | None -> ());
    match baseline with
    | None -> ()
    | Some path -> (
        let base =
          try Perf.read_baseline ~path with
          | Sys_error msg | Perf.Json_error msg ->
              Printf.eprintf "uhmc: cannot read baseline %s: %s\n" path msg;
              exit 1
        in
        match
          Perf.check_against_baseline ~max_regression_pct:max_regression
            ~baseline:base samples
        with
        | Error msg ->
            Printf.eprintf "uhmc: baseline comparison failed: %s\n" msg;
            exit 1
        | Ok [] ->
            Printf.printf
              "perf gate: no sample regressed more than %.0f%% vs %s\n"
              max_regression path
        | Ok regressions ->
            List.iter
              (fun r ->
                Printf.eprintf
                  "perf gate: %s/%s [%s] regressed %.1f%% (relative rate \
                   %.3f -> %.3f)\n"
                  r.Perf.reg_workload r.Perf.reg_strategy r.Perf.reg_backend
                  r.Perf.reg_drop_pct r.Perf.reg_baseline_rel
                  r.Perf.reg_current_rel)
              regressions;
            exit 1)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Measure host-side simulator throughput (wall clock) for the \
             representative workloads under each strategy and backend; \
             optionally gate against a committed baseline.")
    Term.(const action $ runs_arg $ seconds_arg $ out_arg $ workloads_arg
          $ programs_arg $ backends_arg $ jobs_arg $ sweep_arg
          $ baseline_arg $ max_regression_arg)

(* -- mix ---------------------------------------------------------------------- *)

let mix_cmd =
  let module Resilient = Uhm_fault.Resilient in
  let module FExp = Uhm_fault.Experiment in
  let programs_arg =
    Arg.(value & opt_all string []
         & info [ "p"; "program" ] ~docv:"NAME"
             ~doc:"Built-in program to include in the mix (repeatable; at \
                   least two make a mix, one is allowed).")
  in
  let quantum_arg =
    Arg.(value & opt int 64
         & info [ "q"; "quantum" ] ~docv:"N"
             ~doc:"Scheduling quantum in DIR instructions; 0 means never \
                   preempt (the quantum-to-infinity limit).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write a Chrome trace_event JSON file loadable in \
                   about://tracing (with several policies, the policy name \
                   is inserted before the extension).")
  in
  let poison_arg =
    Arg.(value & opt_all int []
         & info [ "poison-cell" ] ~docv:"IDX"
             ~doc:"Testing aid for the quarantine path: make the cell at \
                   index $(docv) (policy order) fail on every attempt, so \
                   it ends up quarantined (exit 1) while the other cells \
                   complete.")
  in
  let action programs policies quantum scheduler kind fuse trace_path config
      jobs journal resume cell_fuel poison =
    if programs = [] then begin
      prerr_endline "uhmc mix: at least one -p NAME is required";
      exit 2
    end;
    let policies =
      if policies = [] then [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]
      else policies
    in
    let quantum = if quantum <= 0 then Resilient.solo_quantum else quantum in
    let named = load_programs ~fuse programs in
    (* one cell per policy: mix_axes with singleton scheduler/quantum/config
       axes keeps the cell order identical to the policy list *)
    let axes =
      FExp.mix_axes ~schedulers:[ scheduler ] ~quanta:[ quantum ] ~policies
        ~configs:[ config ] ()
    in
    let fingerprint =
      [ "uhmc mix";
        "programs=" ^ String.concat "," programs;
        "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
        "quantum=" ^ string_of_int quantum;
        "scheduler=" ^ Scheduler.policy_name scheduler;
        "kind=" ^ Kind.name kind;
        "fuse=" ^ string_of_bool fuse;
        "sets=" ^ string_of_int config.Dtb.sets;
        "assoc=" ^ string_of_int config.Dtb.assoc;
        "cell_fuel=" ^ fuel_name cell_fuel;
        "cell=" ^ FExp.cell_format ]
    in
    let slots =
      run_campaign ?journal ?resume ~campaign:"uhmc-mix" ~fingerprint
        ~cells:(List.length axes) (fun setup ->
          FExp.mix_grid_slots ?domains:jobs ~schedulers:[ scheduler ]
            ~quanta:[ quantum ] ~cached:setup.Campaign.cached
            ?cell_hook:setup.Campaign.cell_hook ?cell_fuel ~poison ~kind
            ~policies ~configs:[ config ] named)
    in
    let rows (policy, _, _, _) (cell : FExp.mix_cell) =
      let r = cell.FExp.mc_result in
      Option.iter
        (fun path ->
          let names asid =
            match List.nth_opt r.Resilient.rr_programs asid with
            | Some pr -> pr.Resilient.pr_name
            | None -> Printf.sprintf "asid%d" asid
          in
          write_trace ~path
            ~suffix:
              (if List.length policies = 1 then None
               else Some (Dtb.policy_name policy))
            ~names ~end_cycle:r.Resilient.rr_makespan r.Resilient.rr_trace)
        trace_path;
      List.map2
        (fun (pr : Resilient.program_report) solo ->
          let looked_up = pr.Resilient.pr_dtb_hits + pr.Resilient.pr_dtb_misses in
          [ Dtb.policy_name policy; pr.Resilient.pr_name;
            Table.cell_int pr.Resilient.pr_dir_steps;
            Table.cell_int pr.Resilient.pr_cycles;
            Printf.sprintf "%.3fx"
              (Resilient.slowdown ~cycles:pr.Resilient.pr_cycles ~solo);
            Table.cell_int pr.Resilient.pr_slices;
            Printf.sprintf "%.4f"
              (if looked_up = 0 then 0.
               else
                 float_of_int pr.Resilient.pr_dtb_hits
                 /. float_of_int looked_up);
            Table.cell_int pr.Resilient.pr_dtb_misses;
            Table.cell_int pr.Resilient.pr_dtb_evictions ])
        r.Resilient.rr_programs cell.FExp.mc_solo_cycles
      @ [ [ Dtb.policy_name policy; "(total)"; "";
            Table.cell_int r.Resilient.rr_makespan; "";
            Printf.sprintf "%d sw/%d fl" r.Resilient.rr_switches
              r.Resilient.rr_flushes;
            Printf.sprintf "%.4f" r.Resilient.rr_hit_ratio; "";
            Table.cell_int r.Resilient.rr_evictions ] ]
    in
    let exit_if_quarantined =
      print_campaign_table
        ~columns:
          [ ("policy", Table.Left); ("program", Table.Left);
            ("dir instrs", Table.Right); ("cycles", Table.Right);
            ("slowdown", Table.Right); ("slices", Table.Right);
            ("hit ratio", Table.Right); ("misses", Table.Right);
            ("evictions", Table.Right) ]
        ~labels:(fun (policy, _, _, _) -> [ Dtb.policy_name policy ])
        ~describe:(fun (policy, _, _, _) -> Dtb.policy_name policy)
        ~rows axes slots
    in
    exit_if_quarantined ()
  in
  Cmd.v
    (Cmd.info "mix"
       ~doc:"Time-slice several programs over one shared DTB and report \
             per-program cycles, slowdown vs a solo run, and hit ratios \
             under each ownership policy.")
    Term.(
      const action $ programs_arg $ policies_arg $ quantum_arg
      $ scheduler_arg $ kind_arg $ fuse_arg $ trace_arg $ dtb_config_arg
      $ jobs_arg $ journal_arg $ resume_arg $ cell_fuel_arg $ poison_arg)

(* -- load --------------------------------------------------------------------- *)

let load_cmd =
  let module Serve = Uhm_serve.Serve in
  let module Chaos = Uhm_serve.Chaos in
  let module LX = Uhm_serve.Experiment in
  let programs_arg =
    Arg.(value & opt_all string [ "fact_iter"; "gcd" ]
         & info [ "p"; "program" ] ~docv:"NAME"
             ~doc:"Built-in program for the template pool arrivals draw \
                   from (repeatable; default fact_iter and gcd).")
  in
  let rates_arg =
    Arg.(value & opt_all float []
         & info [ "rate" ] ~docv:"R"
             ~doc:"Offered load in jobs per million simulated cycles \
                   (repeatable; default 4, 12 and 40).")
  in
  let njobs_arg =
    Arg.(value & opt int 300
         & info [ "n"; "njobs" ] ~docv:"N"
             ~doc:"Arrivals offered per cell.")
  in
  let shed_above_arg =
    Arg.(value & opt (some int) None
         & info [ "shed-above" ] ~docv:"N"
             ~doc:"Load shedding: also refuse arrivals while the queue \
                   holds at least $(docv) jobs.")
  in
  let bursty_arg =
    Arg.(value & flag
         & info [ "bursty" ]
             ~doc:"Markov-modulated arrivals: bursts at the offered rate \
                   separated by idle gaps, instead of memoryless Poisson.")
  in
  let burst_arg =
    Arg.(value & opt float 8.
         & info [ "burst" ] ~docv:"B"
             ~doc:"Mean burst length in jobs (with $(b,--bursty)).")
  in
  let idle_arg =
    Arg.(value & opt float 5000.
         & info [ "idle" ] ~docv:"CYCLES"
             ~doc:"Mean idle gap between bursts (with $(b,--bursty)).")
  in
  let economy_arg =
    Arg.(value & flag
         & info [ "economy" ]
             ~doc:"Enable the cold-ASID eviction economy (idle-time and \
                   footprint scoring).")
  in
  let evict_idle_arg =
    Arg.(value & opt int Serve.default_economy.Serve.evict_min_idle
         & info [ "evict-idle" ] ~docv:"TICKS"
             ~doc:"Economy: minimum idle time (DTB recency-clock ticks) \
                   before a slot may be evicted.")
  in
  let evict_watermark_arg =
    Arg.(value & opt float Serve.default_economy.Serve.evict_watermark
         & info [ "evict-watermark" ] ~docv:"F"
             ~doc:"Economy: score evictions only while resident entries \
                   exceed this fraction of tag capacity.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write each cell's Chrome trace_event JSON (the policy \
                   name and rate are inserted before the extension when \
                   the grid has several cells).")
  in
  let slo_arg =
    Arg.(value & opt_all int []
         & info [ "slo" ] ~docv:"BOUND"
             ~doc:"Report exact SLO attainment (completions within \
                   $(docv) cycles of arrival over all completions) as an \
                   extra column per bound (repeatable).")
  in
  let action programs policies rates njobs seed slots quantum scheduler kind
      fuse queue_cap shed_above bursty burst idle economy evict_idle
      evict_watermark config jobs trace_path slo_bounds journal resume
      cell_fuel poison =
    if programs = [] then begin
      prerr_endline "uhmc load: at least one -p NAME is required";
      exit 2
    end;
    let slo_bounds = List.sort_uniq compare slo_bounds in
    if List.exists (fun b -> b < 1) slo_bounds then begin
      prerr_endline "uhmc load: --slo bounds must be at least 1";
      exit 2
    end;
    let policies =
      if policies = [] then [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]
      else policies
    in
    let rates = if rates = [] then LX.default_rates else rates in
    let shape =
      if bursty then LX.Open_bursty { burst; idle } else LX.Open_poisson
    in
    let admission =
      { Serve.queue_capacity = queue_cap; shed_above }
    in
    let economy =
      if economy then
        Some { Serve.evict_min_idle = evict_idle; evict_watermark }
      else None
    in
    let named = load_programs ~fuse programs in
    (* the plain service is the serving grid at fault rate 0 alone *)
    let axes =
      LX.resilience_axes ~quanta:[ quantum ] ~rates ~fault_rates:[ 0. ]
        ~policies ()
    in
    let fingerprint =
      [ "uhmc load";
        "programs=" ^ String.concat "," programs;
        "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
        "rates=" ^ String.concat "," (List.map string_of_float rates);
        "njobs=" ^ string_of_int njobs;
        "seed=" ^ string_of_int seed;
        "slots=" ^ string_of_int slots;
        "quantum=" ^ string_of_int quantum;
        "scheduler=" ^ Scheduler.policy_name scheduler;
        "kind=" ^ Kind.name kind;
        "fuse=" ^ string_of_bool fuse;
        "shape=" ^ LX.shape_name shape;
        "queue_cap=" ^ string_of_int queue_cap;
        "shed_above="
        ^ (match shed_above with None -> "none" | Some n -> string_of_int n);
        "economy="
        ^ (match economy with
          | None -> "off"
          | Some e ->
              Printf.sprintf "idle=%d,watermark=%g" e.Serve.evict_min_idle
                e.Serve.evict_watermark);
        "sets=" ^ string_of_int config.Dtb.sets;
        "assoc=" ^ string_of_int config.Dtb.assoc;
        "cell_fuel=" ^ fuel_name cell_fuel;
        "cell=" ^ LX.cell_format ]
    in
    let slots_out =
      run_campaign ?journal ?resume ~campaign:"uhmc-load" ~fingerprint
        ~cells:(List.length axes) (fun setup ->
          LX.resilience_grid_slots ?domains:jobs ~scheduler
            ~quanta:[ quantum ] ~shape ~admission ?economy
            ~cached:setup.Campaign.cached ?cell_hook:setup.Campaign.cell_hook
            ?cell_fuel ~poison ~seed ~jobs:njobs ~slots ~kind ~policies
            ~fault_rates:[ 0. ] ~rates ~config named)
    in
    let rows (policy, _, _, rate) (cell : LX.resilience_cell) =
      let r = cell.LX.rc_result.Chaos.cv_serve in
      let s = r.Serve.sv_summary in
      Option.iter
        (fun path ->
          write_trace ~path
            ~suffix:
              (if List.length axes = 1 then None
               else
                 Some (Printf.sprintf "%s-r%g" (Dtb.policy_name policy) rate))
            ~names:(Printf.sprintf "slot%d")
            ~end_cycle:s.Serve.s_total_cycles r.Serve.sv_trace)
        trace_path;
      [ [ Dtb.policy_name policy; Printf.sprintf "%g" rate;
          Table.cell_int s.Serve.s_jobs;
          Table.cell_int s.Serve.s_completed;
          Table.cell_int s.Serve.s_shed;
          Table.cell_int s.Serve.s_p50;
          Table.cell_int s.Serve.s_p95;
          Table.cell_int s.Serve.s_p99;
          Table.cell_int s.Serve.s_qd_p95;
          Printf.sprintf "%.3fx" s.Serve.s_mean_slowdown;
          Printf.sprintf "%.2f" s.Serve.s_throughput;
          Table.cell_int s.Serve.s_evictions;
          Printf.sprintf "%.4f" s.Serve.s_hit_ratio ]
        @ List.map
            (fun bound ->
              let _, _, attainment = Serve.slo ~bound r.Serve.sv_jobs in
              Printf.sprintf "%.3f" attainment)
            slo_bounds ]
    in
    let exit_if_quarantined =
      print_campaign_table
        ~columns:
          ([ ("policy", Table.Left); ("rate", Table.Right);
             ("jobs", Table.Right); ("done", Table.Right);
             ("shed", Table.Right); ("p50", Table.Right);
             ("p95", Table.Right); ("p99", Table.Right);
             ("qd p95", Table.Right); ("slowdown", Table.Right);
             ("thru/Mcyc", Table.Right); ("evict", Table.Right);
             ("hit ratio", Table.Right) ]
          @ List.map
              (fun b -> (Printf.sprintf "slo@%d" b, Table.Right))
              slo_bounds)
        ~labels:(fun (policy, _, _, rate) ->
          [ Dtb.policy_name policy; Printf.sprintf "%g" rate ])
        ~describe:(fun (policy, _, _, rate) ->
          Printf.sprintf "%s, rate %g" (Dtb.policy_name policy) rate)
        ~rows axes slots_out
    in
    exit_if_quarantined ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Serve an open stream of arriving jobs through a bounded pool \
             of ASID slots sharing one DTB, and report latency percentiles \
             and throughput per offered load.")
    Term.(
      const action $ programs_arg $ policies_arg $ rates_arg $ njobs_arg
      $ seed_arg $ slots_arg 8 $ quantum_arg $ scheduler_arg $ kind_arg
      $ fuse_arg $ queue_cap_arg $ shed_above_arg $ bursty_arg $ burst_arg
      $ idle_arg $ economy_arg $ evict_idle_arg $ evict_watermark_arg
      $ dtb_config_arg $ jobs_arg $ trace_arg $ slo_arg $ journal_arg
      $ resume_arg $ cell_fuel_arg $ poison_arg)

(* -- serve-chaos -------------------------------------------------------------- *)

let serve_chaos_cmd =
  let module Serve = Uhm_serve.Serve in
  let module Chaos = Uhm_serve.Chaos in
  let module LX = Uhm_serve.Experiment in
  let programs_arg =
    Arg.(value & opt_all string [ "fact_iter"; "string_out" ]
         & info [ "p"; "program" ] ~docv:"NAME"
             ~doc:"Built-in program for the template pool arrivals draw \
                   from (repeatable; default fact_iter and string_out; \
                   Fortran-S names start with ftn_).")
  in
  let policies_arg =
    Arg.(value & opt_all policy_conv [ Dtb.Tagged ]
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Shared-DTB ownership policy: flush, tagged, partitioned \
                   (repeatable; default tagged).")
  in
  let rates_arg =
    Arg.(value & opt_all float [ 4.0 ]
         & info [ "rate" ] ~docv:"R"
             ~doc:"Offered load in jobs per million simulated cycles \
                   (repeatable; default 4).")
  in
  let fault_rates_arg =
    Arg.(value & opt_all float []
         & info [ "fault-rate" ] ~docv:"F"
             ~doc:"Total per-INTERP-step injection probability, split \
                   evenly over the four fault classes (repeatable; \
                   default 0, 1e-5 and 1e-4; 0 is the fault-free \
                   control).")
  in
  let njobs_arg =
    Arg.(value & opt int 120
         & info [ "n"; "njobs" ] ~docv:"N" ~doc:"Arrivals offered per cell.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 4242
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Injector seed (the same for every cell, so columns \
                   differ only in rate).")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline" ] ~docv:"CYCLES"
             ~doc:"Per-job SLO bound: a job completing more than $(docv) \
                   cycles after arrival counts as a deadline miss.")
  in
  let retry_limit_arg =
    Arg.(value & opt int 2
         & info [ "retry-limit" ] ~docv:"N"
             ~doc:"Voided attempts a job may retry before it retires as \
                   failed.")
  in
  let backoff_arg =
    Arg.(value & opt int 4096
         & info [ "backoff" ] ~docv:"CYCLES"
             ~doc:"Base of the job-level exponential retry backoff.")
  in
  let checkpoint_arg =
    Arg.(value & opt int 1024
         & info [ "checkpoint-every" ] ~docv:"STEPS"
             ~doc:"Checkpoint cadence for memory-fault rollback (taken \
                   only when memory faults are possible).")
  in
  let brownout_arg =
    Arg.(value & flag
         & info [ "brownout" ]
             ~doc:"Enable the staged degradation controller (shed harder, \
                   admit as pure interpretation, quarantine the poisoned \
                   slot) with its default thresholds.")
  in
  let weight_arg =
    Arg.(value & opt_all float []
         & info [ "weight" ] ~docv:"W"
             ~doc:"Template-pick weight, one per -p in order (repeatable); \
                   omitted, picks are uniform.")
  in
  let action programs policies rates fault_rates njobs seed fault_seed slots
      quantum scheduler kind fuse queue_cap deadline retry_limit backoff
      checkpoint_every brownout weights config jobs journal resume
      cell_fuel poison =
    if programs = [] then begin
      prerr_endline "uhmc serve-chaos: at least one -p NAME is required";
      exit 2
    end;
    let fault_rates =
      if fault_rates = [] then LX.default_fault_rates else fault_rates
    in
    let weights = match weights with [] -> None | ws -> Some ws in
    (match weights with
    | Some ws when List.length ws <> List.length programs ->
        prerr_endline "uhmc serve-chaos: --weight count must match -p count";
        exit 2
    | _ -> ());
    let admission = { Serve.queue_capacity = queue_cap; shed_above = None } in
    let brownout = if brownout then Some Chaos.default_brownout else None in
    let named = load_programs ~fuse programs in
    let axes =
      LX.resilience_axes ~quanta:[ quantum ] ~rates ~fault_rates ~policies ()
    in
    let fingerprint =
      [ "uhmc serve-chaos";
        "programs=" ^ String.concat "," programs;
        "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
        "rates=" ^ String.concat "," (List.map (Printf.sprintf "%h") rates);
        "fault_rates="
        ^ String.concat "," (List.map (Printf.sprintf "%h") fault_rates);
        "njobs=" ^ string_of_int njobs;
        "seed=" ^ string_of_int seed;
        "fault_seed=" ^ string_of_int fault_seed;
        "slots=" ^ string_of_int slots;
        "quantum=" ^ string_of_int quantum;
        "scheduler=" ^ Scheduler.policy_name scheduler;
        "kind=" ^ Kind.name kind;
        "fuse=" ^ string_of_bool fuse;
        "queue_cap=" ^ string_of_int queue_cap;
        "deadline="
        ^ (match deadline with None -> "none" | Some d -> string_of_int d);
        "retry_limit=" ^ string_of_int retry_limit;
        "backoff=" ^ string_of_int backoff;
        "checkpoint_every=" ^ string_of_int checkpoint_every;
        "brownout=" ^ string_of_bool (brownout <> None);
        "weights=" ^ Uhm_serve.Arrival.weights_name weights;
        "sets=" ^ string_of_int config.Dtb.sets;
        "assoc=" ^ string_of_int config.Dtb.assoc;
        "cell_fuel=" ^ fuel_name cell_fuel ]
    in
    let slots_out =
      run_campaign ?journal ?resume ~campaign:"uhmc-serve-chaos"
        ~fingerprint ~cells:(List.length axes) (fun setup ->
          LX.resilience_grid_slots ?domains:jobs ~scheduler
            ~quanta:[ quantum ] ~admission ~cached:setup.Campaign.cached
            ?cell_hook:setup.Campaign.cell_hook ?cell_fuel ?weights
            ~retry_limit ~backoff ~checkpoint_every ?deadline ?brownout
            ~fault_seed ~poison ~seed ~jobs:njobs ~slots ~kind ~policies
            ~fault_rates ~rates ~config named)
    in
    let rows (policy, _, frate, rate) (cell : LX.resilience_cell) =
      let s = cell.LX.rc_result.Chaos.cv_serve.Serve.sv_summary in
      let c = cell.LX.rc_result.Chaos.cv_summary in
      [ [ Dtb.policy_name policy; Printf.sprintf "%g" frate;
          Printf.sprintf "%g" rate;
          Table.cell_int s.Serve.s_jobs;
          Table.cell_int s.Serve.s_completed;
          Table.cell_int c.Chaos.cs_failed_jobs;
          Table.cell_int s.Serve.s_shed;
          Printf.sprintf "%.3f" c.Chaos.cs_attainment;
          Printf.sprintf "%.2f" c.Chaos.cs_goodput;
          Table.cell_int c.Chaos.cs_injected;
          Table.cell_int c.Chaos.cs_detected;
          Table.cell_int c.Chaos.cs_job_retries;
          Table.cell_int s.Serve.s_p99;
          Table.cell_int c.Chaos.cs_max_stage ] ]
    in
    let exit_if_quarantined =
      print_campaign_table
        ~columns:
          [ ("policy", Table.Left); ("frate", Table.Right);
            ("rate", Table.Right); ("jobs", Table.Right);
            ("done", Table.Right); ("failed", Table.Right);
            ("shed", Table.Right); ("attain", Table.Right);
            ("goodput", Table.Right); ("inj", Table.Right);
            ("det", Table.Right); ("retries", Table.Right);
            ("p99", Table.Right); ("stage", Table.Right) ]
        ~labels:(fun (policy, _, frate, rate) ->
          [ Dtb.policy_name policy; Printf.sprintf "%g" frate;
            Printf.sprintf "%g" rate ])
        ~describe:(fun (policy, _, frate, rate) ->
          Printf.sprintf "%s, fault rate %g, rate %g" (Dtb.policy_name policy)
            frate rate)
        ~rows axes slots_out
    in
    exit_if_quarantined ()
  in
  Cmd.v
    (Cmd.info "serve-chaos"
       ~doc:"The open-arrival service under seeded fault injection: \
             deadlines, retry with backoff, brownout degradation.  Exit \
             codes: 0 all cells clean; 1 a cell was quarantined (a \
             no-wrong-answers invariant violation is a quarantine); 2 \
             malformed input or a resume-journal fingerprint mismatch.")
    Term.(
      const action $ programs_arg $ policies_arg $ rates_arg $ fault_rates_arg
      $ njobs_arg $ seed_arg $ fault_seed_arg $ slots_arg 4 $ quantum_arg
      $ scheduler_arg $ kind_arg $ fuse_arg $ queue_cap_arg $ deadline_arg
      $ retry_limit_arg $ backoff_arg $ checkpoint_arg $ brownout_arg
      $ weight_arg $ dtb_config_arg $ jobs_arg $ journal_arg
      $ resume_arg $ cell_fuel_arg $ poison_arg)

(* -- faults ------------------------------------------------------------------- *)

let faults_cmd =
  let module Injector = Uhm_fault.Injector in
  let module FExp = Uhm_fault.Experiment in
  let module Resilient = Uhm_fault.Resilient in
  let programs_arg =
    Arg.(value & opt_all string [ "fact_iter"; "gcd" ]
         & info [ "p"; "program" ] ~docv:"NAME"
             ~doc:"Built-in program to include in the mix (repeatable; \
                   default fact_iter and gcd).")
  in
  let class_conv =
    let parse s =
      match Injector.class_of_name s with
      | Some c -> Ok c
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown fault class %s (dtb-tag, psder-word, translator, \
                  mem-word)"
                 s))
    in
    Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (Injector.class_name c))
  in
  let classes_arg =
    Arg.(value & opt_all class_conv []
         & info [ "c"; "class" ] ~docv:"CLASS"
             ~doc:"Fault class: dtb-tag, psder-word, translator, mem-word \
                   (repeatable; default all four).")
  in
  let rates_arg =
    Arg.(value & opt_all float []
         & info [ "r"; "rate" ] ~docv:"RATE"
             ~doc:"Fault probability per DIR instruction step (repeatable; \
                   default 0, 1e-4, 1e-3, 1e-2).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (cells derive \
             their injector seeds from it).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Also write the campaign points as a JSON array to $(docv).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH"
             ~doc:"Also write the campaign points as CSV to $(docv).")
  in
  let action programs classes rates policies quantum seed jobs json csv
      journal resume cell_fuel =
    let classes = if classes = [] then Injector.all_classes else classes in
    let rates = if rates = [] then FExp.default_rates else rates in
    let policies =
      if policies = [] then [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]
      else policies
    in
    let named = load_programs ~fuse:false programs in
    let axes =
      FExp.fault_axes ~quanta:[ quantum ] ~classes ~rates ~policies
        ~configs:[ Dtb.paper_config ] ()
    in
    let fingerprint =
      [ "uhmc faults";
        "programs=" ^ String.concat "," programs;
        "classes=" ^ String.concat "," (List.map Injector.class_name classes);
        "rates="
        ^ String.concat "," (List.map (Printf.sprintf "%h") rates);
        "policies=" ^ String.concat "," (List.map Dtb.policy_name policies);
        "quantum=" ^ string_of_int quantum;
        "seed=" ^ string_of_int seed;
        "cell_fuel=" ^ fuel_name cell_fuel ]
    in
    let slots =
      run_campaign ?journal ?resume ~campaign:"uhmc-faults" ~fingerprint
        ~cells:(List.length axes) (fun setup ->
          FExp.fault_grid_slots ?domains:jobs ~quanta:[ quantum ] ~seed
            ~cached:setup.Campaign.cached ?cell_hook:setup.Campaign.cell_hook
            ?cell_fuel ~kind:Kind.Huffman ~classes ~rates ~policies
            ~configs:[ Dtb.paper_config ] named)
    in
    let points =
      List.filter_map
        (function Sweep.Completed p -> Some p | Sweep.Quarantined _ -> None)
        slots
    in
    let exit_if_quarantined =
      print_campaign_table
        ~columns:
          [ ("class", Table.Left); ("rate", Table.Right);
            ("policy", Table.Left); ("recovered", Table.Left);
            ("overhead", Table.Right); ("injected", Table.Right);
            ("detected", Table.Right); ("retries", Table.Right);
            ("rollbacks", Table.Right); ("downgrades", Table.Right) ]
        ~labels:(fun (cls, rate, policy, _, _) ->
          [ Injector.class_name cls; Printf.sprintf "%g" rate;
            Dtb.policy_name policy ])
        ~describe:(fun (cls, rate, policy, _, _) ->
          Printf.sprintf "class=%s rate=%g policy=%s" (Injector.class_name cls)
            rate (Dtb.policy_name policy))
        ~rows:(fun _ (p : FExp.point) ->
          [ [ Injector.class_name p.FExp.fp_class;
              Printf.sprintf "%g" p.FExp.fp_rate;
              Dtb.policy_name p.FExp.fp_policy;
              (if p.FExp.fp_recovered_ok then "yes" else "NO");
              Printf.sprintf "%.4fx" p.FExp.fp_overhead;
              Table.cell_int p.FExp.fp_injected;
              Table.cell_int p.FExp.fp_detected;
              Table.cell_int p.FExp.fp_retries;
              Table.cell_int p.FExp.fp_rollbacks;
              Table.cell_int p.FExp.fp_downgrades ] ])
        axes slots
    in
    (match csv with
    | None -> ()
    | Some path ->
        let header =
          [ "class"; "rate"; "policy"; "quantum"; "seed"; "recovered";
            "overhead"; "cycles"; "baseline_cycles"; "injected"; "detected";
            "retries"; "rollbacks"; "downgrades" ]
        in
        let rows =
          List.map
            (fun (p : FExp.point) ->
              [ Injector.class_name p.FExp.fp_class;
                Printf.sprintf "%g" p.FExp.fp_rate;
                Dtb.policy_name p.FExp.fp_policy;
                string_of_int p.FExp.fp_quantum;
                string_of_int p.FExp.fp_seed;
                string_of_bool p.FExp.fp_recovered_ok;
                Printf.sprintf "%.6f" p.FExp.fp_overhead;
                string_of_int
                  p.FExp.fp_result.Uhm_fault.Resilient.rr_makespan;
                string_of_int p.FExp.fp_baseline_cycles;
                string_of_int p.FExp.fp_injected;
                string_of_int p.FExp.fp_detected;
                string_of_int p.FExp.fp_retries;
                string_of_int p.FExp.fp_rollbacks;
                string_of_int p.FExp.fp_downgrades ])
            points
        in
        let oc = open_out path in
        output_string oc (Uhm_report.Csv.render ~header rows);
        close_out oc;
        Printf.printf "wrote %s (%d points)\n" path (List.length points));
    (match json with
    | None -> ()
    | Some path ->
        let point_json (p : FExp.point) =
          Printf.sprintf
            "  {\"class\": \"%s\", \"rate\": %g, \"policy\": \"%s\", \
             \"quantum\": %d, \"seed\": %d, \"recovered\": %b, \
             \"overhead\": %.6f, \"cycles\": %d, \"baseline_cycles\": %d, \
             \"injected\": %d, \"detected\": %d, \"retries\": %d, \
             \"rollbacks\": %d, \"downgrades\": %d}"
            (Injector.class_name p.FExp.fp_class)
            p.FExp.fp_rate
            (Dtb.policy_name p.FExp.fp_policy)
            p.FExp.fp_quantum p.FExp.fp_seed p.FExp.fp_recovered_ok
            p.FExp.fp_overhead
            p.FExp.fp_result.Uhm_fault.Resilient.rr_makespan
            p.FExp.fp_baseline_cycles p.FExp.fp_injected p.FExp.fp_detected
            p.FExp.fp_retries p.FExp.fp_rollbacks p.FExp.fp_downgrades
        in
        let oc = open_out path in
        output_string oc
          ("[\n" ^ String.concat ",\n" (List.map point_json points) ^ "\n]\n");
        close_out oc;
        Printf.printf "wrote %s (%d points)\n" path (List.length points));
    let bad =
      List.filter (fun (p : FExp.point) -> not p.FExp.fp_recovered_ok) points
    in
    List.iter
      (fun (p : FExp.point) ->
        Printf.eprintf
          "uhmc: recovery FAILED: class=%s rate=%g policy=%s seed=%d\n"
          (Injector.class_name p.FExp.fp_class)
          p.FExp.fp_rate
          (Dtb.policy_name p.FExp.fp_policy)
          p.FExp.fp_seed)
      bad;
    exit_if_quarantined ();
    if bad = [] then
      Printf.printf
        "recovery invariant holds at all %d campaign points\n"
        (List.length points)
    else exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a fault-injection campaign over the resilience subsystem: \
             program mix x fault class x rate x DTB policy, checking that \
             detection and recovery reproduce the fault-free final state \
             at every point and reporting the cycle overhead.")
    Term.(
      const action $ programs_arg $ classes_arg $ rates_arg $ policies_arg
      $ quantum_arg $ seed_arg $ jobs_arg $ json_arg $ csv_arg
      $ journal_arg $ resume_arg $ cell_fuel_arg)

(* -- campaign ----------------------------------------------------------------- *)

let campaign_cmd =
  let module Journal = Uhm_campaign.Journal in
  let compact_cmd =
    let journal_file_arg =
      Arg.(required & pos 0 (some file) None
           & info [] ~docv:"JOURNAL"
               ~doc:"Campaign journal file to compact in place.")
    in
    let action path =
      match Journal.compact ~path with
      | Ok c ->
          Printf.printf
            "compacted %s: %d record(s) kept, %d superseded record(s) \
             retired (%d bytes)\n"
            path c.Journal.c_kept c.Journal.c_retired c.Journal.c_valid_bytes
      | Error e ->
          Printf.eprintf "uhmc: error: cannot compact %s: %s\n" path
            (Journal.load_error_message e);
          exit 2
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:"Rewrite a campaign journal keeping only the last record of \
               each cell (exactly the records a resume uses), dropping \
               superseded lines from earlier resumes.  Crash-safe: the \
               compacted file is fsync'd and atomically renamed over the \
               original.  Resuming from the compacted journal reproduces \
               a byte-identical report.")
      Term.(const action $ journal_file_arg)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Maintenance of crash-safe campaign journals.")
    [ compact_cmd ]

(* -- suite -------------------------------------------------------------------- *)

let suite_cmd =
  let action () =
    let t =
      Table.create
        ~columns:
          [ ("name", Table.Left); ("class", Table.Left);
            ("description", Table.Left) ]
        ()
    in
    List.iter
      (fun e ->
        Table.add_row t
          [ e.Suite.name;
            (match e.Suite.loopiness with
            | `Tight -> "tight"
            | `Mixed -> "mixed"
            | `Flat -> "flat");
            e.Suite.description ])
      Suite.all;
    List.iter
      (fun e ->
        Table.add_row t
          [ e.Uhm_ftn.Suite.name; "fortran"; e.Uhm_ftn.Suite.description ])
      Uhm_ftn.Suite.all;
    Table.print t
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the built-in benchmark programs.")
    Term.(const action $ const ())

let () =
  let doc = "universal host machine with dynamic translation (Rau 1978)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "uhmc" ~doc)
          [ compile_cmd; run_cmd; encode_cmd; trace_cmd; calibrate_cmd;
            suite_cmd; perf_cmd; mix_cmd; load_cmd; serve_chaos_cmd; faults_cmd;
            campaign_cmd ]))
