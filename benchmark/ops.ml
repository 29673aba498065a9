(* The benchmark's workloads and the op functions that drive them.

   Every op calls the public entry points of the repo's layers, in the
   order a user of the system pays for them, and wraps each call in a
   span.  Each op's simulated outcome is checked against an independent
   oracle (the reference interpreters' output) and against a committed
   fingerprint of its simulated counters. *)

module U = Uhm_core.Uhm
module Dtb = Uhm_core.Dtb
module Prng = Uhm_core.Prng
module Codec = Uhm_encoding.Codec
module Kind = Uhm_encoding.Kind
module Machine = Uhm_machine.Machine
module R = Uhm_machine.Host_isa.Regs
module Layout = Uhm_psder.Layout
module Suite = Uhm_workload.Suite
module Ftn_suite = Uhm_ftn.Suite
module Arrival = Uhm_serve.Arrival
module Serve = Uhm_serve.Serve
module Chaos = Uhm_serve.Chaos
module Trace = Uhm_sched.Trace

type workload = Run_decode | Run_threaded | Serve_load | Serve_chaos

let workloads =
  [ ("run-decode", Run_decode); ("run-threaded", Run_threaded);
    ("serve-load", Serve_load); ("serve-chaos", Serve_chaos) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let backend = function
  | Run_decode | Serve_load -> `Decode
  | Run_threaded | Serve_chaos -> `Threaded

(* -- Programs and their oracles --------------------------------------------- *)

type program = Algol of Suite.entry | Fortran of Ftn_suite.entry

let program_name = function Algol e -> e.Suite.name | Fortran e -> e.Ftn_suite.name

let compile = function
  | Algol e -> Suite.compile e
  | Fortran e -> Ftn_suite.compile e

(* The HLR-level interpreters share no code with the compiler, encoder or
   machine, so their output is an independent oracle for every run. *)
let reference_output = function
  | Algol e -> Uhm_hlr.Env_interp.run_output (Suite.parse e)
  | Fortran e -> Uhm_ftn.Interp.run_output (Ftn_suite.parse e)

let find_program name =
  match Suite.find name with
  | e -> Algol e
  | exception Not_found -> Fortran (Ftn_suite.find name)

(* queens alone simulates about three times as many cycles as the other
   twenty programs together, so it would dominate every run-* figure. *)
let run_programs =
  List.filter_map
    (fun e -> if e.Suite.name = "queens" then None else Some (Algol e))
    Suite.all
  @ List.map (fun e -> Fortran e) Ftn_suite.all

type mode = Interp | Dtb | Der

let modes = [ ("interp", Interp); ("dtb", Dtb); ("der", Der) ]
let mode_name m = fst (List.find (fun (_, m') -> m' = m) modes)

let strategy = function
  | Interp -> U.Interp
  | Dtb -> U.Dtb_strategy Dtb.paper_config
  | Der -> U.Der U.Der_level1

(* -- Per-phase context ------------------------------------------------------- *)

type ctx = {
  spans : Span.t;
  counters : (string, float) Hashtbl.t;
  traced : bool;  (* time every DTB lookup and translation *)
}

let new_ctx ~traced = { spans = Span.create (); counters = Hashtbl.create 64; traced }

let bump ctx name v =
  Hashtbl.replace ctx.counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt ctx.counters name))

let counter ctx name = Option.value ~default:0. (Hashtbl.find_opt ctx.counters name)

let span ctx name f = Span.with_span ctx.spans name f

(* -- One machine run ---------------------------------------------------------- *)

type run = {
  status : Machine.status;
  output : string;
  cycles : int;
  host_instrs : int;
  short_instrs : int;
  interp_count : int;
  dtb : (int * int * int * int) option;  (* hits, misses, evictions, emitted *)
}

let of_result (r : U.result) =
  let s = r.U.machine_stats in
  {
    status = r.U.status;
    output = r.U.output;
    cycles = r.U.cycles;
    host_instrs = s.Machine.host_instrs;
    short_instrs = s.Machine.short_instrs;
    interp_count = s.Machine.interp_count;
    dtb =
      (* every INTERP performs exactly one lookup *)
      Option.map
        (fun misses ->
          ( s.Machine.interp_count - misses, misses,
            Option.value ~default:0 r.U.dtb_evictions,
            Option.value ~default:0 r.U.dtb_emitted_words ))
        r.U.dtb_misses;
  }

(* The traced form of a DTB run: the plain lookup/translate protocol
   through [Uhm.prepare_dtb_custom], timing each lookup and each
   translation (miss to end of translation).  Cycle-identical to
   [Uhm.run_encoded] with the same DTB configuration. *)
let traced_dtb_run ctx ~backend (encoded : Codec.encoded) =
  let layout = Layout.default in
  let dtb =
    Dtb.create Dtb.paper_config ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
  in
  let t_dtb = Uhm_machine.Timing.paper.Uhm_machine.Timing.t_dtb in
  let lookups = ref 0 and lookup_ns = ref 0 in
  let translations = ref 0 and translate_ns = ref 0 and miss_at = ref 0 in
  let emitted = ref 0 in
  let make_interp ~translator_entry m ~dir_addr ~dctx =
    Machine.add_cycles m t_dtb;
    let t0 = Span.now_ns () in
    let found = Dtb.lookup dtb ~tag:dir_addr in
    let t1 = Span.now_ns () in
    incr lookups;
    lookup_ns := !lookup_ns + (t1 - t0);
    match found with
    | `Hit addr -> Machine.set_pc m (Machine.Short addr)
    | `Miss ->
        miss_at := t1;
        Dtb.begin_translation dtb ~tag:dir_addr;
        Machine.set_reg m R.dpc dir_addr;
        Machine.set_reg m R.dctx dctx;
        Machine.set_pc m (Machine.Long translator_entry)
  in
  let on_end_translation ~start_addr:_ =
    incr translations;
    translate_ns := !translate_ns + (Span.now_ns () - !miss_at)
  in
  let m, _ =
    U.prepare_dtb_custom ~backend
      ~on_emit:(fun ~addr:_ ~word:_ -> incr emitted)
      ~on_end_translation ~make_interp ~dtb encoded
  in
  let status =
    span ctx "execute" (fun () ->
        let status = Machine.run m in
        Span.add_agg ctx.spans ~name:"dtb.lookup" ~count:!lookups ~ns:!lookup_ns;
        Span.add_agg ctx.spans ~name:"dtb.translate" ~count:!translations
          ~ns:!translate_ns;
        status)
  in
  let s = Machine.stats m in
  let run =
    {
      status;
      output = Machine.output m;
      cycles = s.Machine.cycles;
      host_instrs = s.Machine.host_instrs;
      short_instrs = s.Machine.short_instrs;
      interp_count = s.Machine.interp_count;
      dtb =
        (* [on_emit] also sees the one chain word of every overflow block *)
        Some
          ( Dtb.hits dtb, Dtb.misses dtb, Dtb.evictions dtb,
            !emitted - Dtb.overflow_allocations dtb );
    }
  in
  Machine.recycle m;
  run

(* Run [p] (or its encoding) under [mode] on [backend].  The [uhm.run]
   span wraps the whole call; its self time, once the runner's [execute]
   span is taken out, is the prepare layer. *)
let machine_run ctx ~backend mode (p : Uhm_dir.Program.t)
    (encoded : Codec.encoded option) =
  let run =
    span ctx "uhm.run" (fun () ->
        let runner m = span ctx "execute" (fun () -> Machine.run m) in
        match (mode, encoded) with
        | Dtb, Some e when ctx.traced -> traced_dtb_run ctx ~backend e
        | (Interp | Dtb), Some e ->
            of_result (U.run_encoded ~backend ~runner ~strategy:(strategy mode) e)
        | _ ->
            of_result
              (U.run ~backend ~runner ~strategy:(strategy mode) ~kind:Kind.Huffman
                 p))
  in
  bump ctx "machine.runs" 1.;
  bump ctx "machine.sim_cycles" (float_of_int run.cycles);
  bump ctx "machine.host_instrs" (float_of_int run.host_instrs);
  bump ctx "machine.short_instrs" (float_of_int run.short_instrs);
  bump ctx "machine.interp_count" (float_of_int run.interp_count);
  Option.iter
    (fun (hits, misses, evictions, emitted) ->
      bump ctx "dtb.runs" 1.;
      bump ctx "dtb.hits" (float_of_int hits);
      bump ctx "dtb.misses" (float_of_int misses);
      bump ctx "dtb.evictions" (float_of_int evictions);
      bump ctx "dtb.emitted_words" (float_of_int emitted))
    run.dtb;
  run

let compile_counted ctx prog =
  let p = span ctx "compile" (fun () -> compile prog) in
  bump ctx "compile.calls" 1.;
  bump ctx "compile.dir_instrs" (float_of_int (Uhm_dir.Program.size_instructions p));
  p

let encode_counted ctx p =
  let e = span ctx "encode" (fun () -> Codec.encode Kind.Huffman p) in
  bump ctx "encode.bits" (float_of_int e.Codec.size_bits);
  bump ctx "encode.instrs" (float_of_int (Uhm_dir.Program.size_instructions p));
  e

let dir_ref_counted ctx p =
  let steps = span ctx "dir_ref" (fun () -> U.dir_steps_memoized p) in
  bump ctx "dir_ref.calls" 1.;
  bump ctx "dir_ref.steps" (float_of_int steps);
  steps

(* -- Fingerprints --------------------------------------------------------------
   A fingerprint is a line of simulated counters, cycles first.  They are
   exact: any difference means the simulation changed, not noise. *)

let run_fingerprint ~dir_steps r =
  let dtb =
    match r.dtb with
    | None -> "-"
    | Some (h, m, e, w) -> Printf.sprintf "%d/%d/%d/%d" h m e w
  in
  Printf.sprintf "%d %d %d %d %d %s" r.cycles r.host_instrs r.short_instrs
    r.interp_count dir_steps dtb

let load_expected path =
  let tbl = Hashtbl.create 128 in
  if Sys.file_exists path then
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' then
          match String.index_opt line ' ' with
          | Some i ->
              Hashtbl.replace tbl (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> failwith ("malformed fingerprint line in " ^ path))
      (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all));
  tbl

(* Fingerprints depend on neither the seed, which only orders the ops, nor
   the backend: threaded is bit-exact with decode, so both run-*
   workloads share one file. *)
let expected_path ~dir workload =
  Filename.concat dir
    (match workload with
    | Run_decode | Run_threaded -> "run.txt"
    | Serve_load | Serve_chaos -> workload_name workload ^ ".txt")

(* -- The serve workloads' fixed parameters ----------------------------------- *)

(* The [bench resilience] pool: both front ends, skewed 4:1:1 toward the
   light Algol template, service times ~110k to ~660k cycles. *)
let serve_pool = [ "fact_iter"; "string_out"; "ftn_sieve" ]
let serve_weights = Arrival.heavy_tailed ~templates:3 ~heavy:[ (0, 4.0) ]
let serve_rate = 4.0  (* jobs per Mcycle: ~87% of the 8-slot pool's capacity *)
let serve_slots = 8
let serve_quantum = 64
let serve_admission = { Serve.queue_capacity = 64; shed_above = None }
let serve_policies = [| Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned |]
let serve_trace_capacity = 4096
let chaos_fault_rate = 1e-4
let chaos_deadline = 2_000_000
let chaos_fuel = 4_000_000

(* The serve traffic is a fixed library of episodes, each a Poisson
   stream drawn from its own Prng stream of [library_seed]; the benchmark
   seed only orders them.  Drawing the episodes from the benchmark seed
   instead made the serve medians differ by ~10% between seeds at this
   run length (the cost of an episode near the knee depends strongly on
   how its arrivals bunch), which is as wide as the regression bounds. *)
let library_seed = 1978
let library_episodes = 45

let jobs_per_op = function
  | Run_decode | Run_threaded -> 1
  | Serve_load -> 64
  | Serve_chaos -> 32

(* -- Set-up -------------------------------------------------------------------- *)

type run_state = { programs : (program * string) array (* with reference output *) }

type serve_state = {
  templates : (string * Codec.encoded) list;
  references : string array;
  solo_cycles : int array;
}

type state = {
  workload : workload;
  seed : int;
  expected : (string, string) Hashtbl.t;
  strict : bool;  (* an op without a committed fingerprint fails *)
  body : [ `Run of run_state | `Serve of serve_state ];
  items : int;    (* ops in one pass: every item of the library once *)
  mutable perm : int * int array;  (* the current pass and its order *)
}

let setup ctx ~expected_dir workload ~seed =
  let expected = load_expected (expected_path ~dir:expected_dir workload) in
  let backend = backend workload in
  let body =
    match workload with
    | Run_decode | Run_threaded ->
        let programs =
          Array.of_list
            (List.map
               (fun prog -> (prog, span ctx "oracle" (fun () -> reference_output prog)))
               run_programs)
        in
        `Run { programs }
    | Serve_load | Serve_chaos ->
        let pool =
          List.map
            (fun name ->
              let prog = find_program name in
              let reference = span ctx "oracle" (fun () -> reference_output prog) in
              let p = compile_counted ctx prog in
              let e = encode_counted ctx p in
              let _ = dir_ref_counted ctx p in
              (* the template's solo translated run: its output must match
                 the oracle, and its cycles are every completion's
                 [j_solo_cycles] *)
              let r = machine_run ctx ~backend Dtb p (Some e) in
              if r.status <> Machine.Halted || r.output <> reference then
                failwith (name ^ ": solo run disagrees with the reference");
              (if workload = Serve_chaos then
                 let sr =
                   span ctx "chaos.solo_ref" (fun () ->
                       Chaos.solo_reference ~backend ~fuel:chaos_fuel
                         ~config:Dtb.paper_config (name, e))
                 in
                 if sr.Chaos.sr_status <> Machine.Halted
                    || sr.Chaos.sr_output <> reference
                 then failwith (name ^ ": chaos solo reference disagrees"));
              ((name, e), reference, r.cycles))
            serve_pool
        in
        `Serve
          { templates = List.map (fun (t, _, _) -> t) pool;
            references = Array.of_list (List.map (fun (_, r, _) -> r) pool);
            solo_cycles = Array.of_list (List.map (fun (_, _, c) -> c) pool) }
  in
  let items =
    match body with
    | `Run r -> Array.length r.programs * List.length modes
    | `Serve _ -> library_episodes
  in
  { workload; seed; expected; strict = true; body; items; perm = (-1, [||]) }

(* -- Ops ------------------------------------------------------------------------ *)

type outcome = {
  key : string;
  fingerprint : string;
  jobs : int;        (* guest jobs: one run, or the jobs offered *)
  sim_cycles : int;  (* simulated cycles executed *)
  error : string option;
}

(* The seeded shuffle of one pass over the library. *)
let pass_order ~seed ~pass n =
  let g = Prng.create ~seed ~stream:pass in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.next_int g mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The library item op [k] runs. *)
let item st k =
  let pass = k / st.items in
  if fst st.perm <> pass then st.perm <- (pass, pass_order ~seed:st.seed ~pass st.items);
  (snd st.perm).(k mod st.items)

(* A run-* item is a (program, mode) pair. *)
let run_item (r : run_state) i =
  let prog, reference = r.programs.(i / List.length modes) in
  (prog, reference, snd (List.nth modes (i mod List.length modes)))

let run_op ctx st r i =
  let prog, reference, mode = run_item r i in
  let backend = backend st.workload in
  let p = compile_counted ctx prog in
  let encoded = match mode with Der -> None | Interp | Dtb -> Some (encode_counted ctx p) in
  let dir_steps = dir_ref_counted ctx p in
  let run = machine_run ctx ~backend mode p encoded in
  bump ctx "exec.sim_cycles" (float_of_int run.cycles);
  let error =
    if run.status <> Machine.Halted then Some "did not halt"
    else if run.output <> reference then Some "output differs from the reference"
    else None
  in
  {
    key = program_name prog ^ "/" ^ mode_name mode;
    fingerprint = run_fingerprint ~dir_steps run;
    jobs = 1;
    sim_cycles = run.cycles;
    error;
  }

(* Episode [i] of the library: its arrivals and fault schedule come from
   its own Prng stream, and the sharing policy rotates. *)
let serve_op ctx st (s : serve_state) i =
  let g = Prng.create ~seed:library_seed ~stream:i in
  let arrival_seed = Prng.next_int g in
  let fault_seed = Prng.next_int g in
  let policy = serve_policies.(i mod Array.length serve_policies) in
  let backend = backend st.workload in
  let jobs = jobs_per_op st.workload in
  let arrivals =
    span ctx "arrival" (fun () ->
        Arrival.generate ~weights:serve_weights ~seed:arrival_seed
          ~templates:(List.length s.templates) ~jobs
          (Arrival.Poisson { rate = serve_rate }))
  in
  let result, chaos =
    match st.workload with
    | Serve_chaos ->
        let fconfig =
          Uhm_serve.Experiment.resilience_fconfig ~deadline:chaos_deadline
            ~fault_seed chaos_fault_rate
        in
        let r =
          span ctx "serve" (fun () ->
              Chaos.run ~fuel:chaos_fuel ~backend
                ~trace_capacity:serve_trace_capacity ~admission:serve_admission
                ~policy ~quantum:serve_quantum ~config:Dtb.paper_config ~fconfig
                ~slots:serve_slots ~templates:s.templates ~arrivals ())
        in
        (r.Chaos.cv_serve, Some r)
    | _ ->
        ( span ctx "serve" (fun () ->
              Serve.run ~backend ~trace_capacity:serve_trace_capacity
                ~admission:serve_admission ~policy ~quantum:serve_quantum
                ~config:Dtb.paper_config ~slots:serve_slots ~templates:s.templates
                ~arrivals ()),
          None )
  in
  let reports =
    Option.map (fun r -> Array.of_list r.Chaos.cv_reports) chaos
  in
  let errors = ref [] in
  let executed = ref 0 in
  List.iter
    (fun (j : Serve.job) ->
      executed := !executed + j.Serve.j_cycles;
      let fail msg = errors := Printf.sprintf "job %d: %s" j.Serve.j_id msg :: !errors in
      match (j.Serve.j_status, reports) with
      | Serve.Shed, _ -> ()
      | Serve.Failed _, Some _ -> ()  (* the designed outcome of exhausted retries *)
      | Serve.Completed Machine.Halted, None ->
          if j.Serve.j_solo_cycles <> s.solo_cycles.(j.Serve.j_template) then
            fail "solo cycles differ from the template's solo run"
      | Serve.Completed Machine.Halted, Some reports ->
          let rep = reports.(j.Serve.j_id) in
          if rep.Chaos.cj_output <> s.references.(j.Serve.j_template)
             || not rep.Chaos.cj_state_ok
          then fail "accepted completion differs from the reference"
      | _ -> fail "did not halt")
    result.Serve.sv_jobs;
  let sm = result.Serve.sv_summary in
  let trace = result.Serve.sv_trace in
  let translations =
    List.fold_left (fun acc (_, c) -> acc + c.Trace.c_translations) 0
      (Trace.tallies trace)
  in
  bump ctx "exec.sim_cycles" (float_of_int !executed);
  bump ctx "serve.episodes" 1.;
  bump ctx "serve.switches" (float_of_int sm.Serve.s_switches);
  bump ctx "serve.flushes" (float_of_int sm.Serve.s_flushes);
  bump ctx "serve.asid_evictions" (float_of_int sm.Serve.s_evictions);
  bump ctx "serve.translations" (float_of_int translations);
  bump ctx "serve.dtb_hit_ratio" sm.Serve.s_hit_ratio;
  bump ctx "serve.max_queue_depth" (float_of_int sm.Serve.s_max_depth);
  bump ctx "trace.recorded" (float_of_int (Trace.recorded trace));
  bump ctx "trace.dropped" (float_of_int (Trace.dropped trace));
  let chaos_fp =
    match chaos with
    | None -> ""
    | Some r ->
        let cs = r.Chaos.cv_summary in
        let attempts =
          List.fold_left (fun acc rep -> acc + rep.Chaos.cj_attempts) 0
            r.Chaos.cv_reports
        in
        List.iter
          (fun (name, v) -> bump ctx name (float_of_int v))
          [ ("chaos.injected", cs.Chaos.cs_injected);
            ("chaos.detected", cs.Chaos.cs_detected);
            ("chaos.recovery_retries", cs.Chaos.cs_recovery_retries);
            ("chaos.rollbacks", cs.Chaos.cs_rollbacks);
            ("chaos.downgrades", cs.Chaos.cs_downgrades);
            ("chaos.job_retries", cs.Chaos.cs_job_retries);
            ("chaos.failed_jobs", cs.Chaos.cs_failed_jobs);
            ("chaos.attempts", attempts) ];
        Printf.sprintf " %d %d %d %d %d" cs.Chaos.cs_injected cs.Chaos.cs_detected
          cs.Chaos.cs_job_retries cs.Chaos.cs_failed_jobs attempts
  in
  {
    key = Printf.sprintf "e%d" i;
    fingerprint =
      Printf.sprintf "%d %d %d %d %d %d %d %d%s" sm.Serve.s_total_cycles
        sm.Serve.s_p99 sm.Serve.s_completed sm.Serve.s_failed sm.Serve.s_switches
        sm.Serve.s_flushes sm.Serve.s_evictions !executed chaos_fp;
    jobs;
    sim_cycles = !executed;
    error = (match !errors with [] -> None | e -> Some (String.concat "; " (List.rev e)));
  }

type sample = {
  op : int;
  key : string;
  ns : int;
  jobs : int;
  sim_cycles : int;
  fingerprint : string;
  failure : string option;
}

(* Run op [k] (library item [item], by default the one the seed's order
   puts there) under an [op] root span and judge it: an exception, an
   oracle mismatch or a fingerprint that differs from the committed one
   all fail the op, and so does a missing fingerprint when [st.strict]. *)
let attempt ?item:i ctx st k =
  Span.set_op ctx.spans k;
  let i = match i with Some i -> i | None -> item st k in
  let t0 = Span.now_ns () in
  let result =
    try
      Ok
        (span ctx "op" (fun () ->
             match st.body with
             | `Run r -> run_op ctx st r i
             | `Serve s -> serve_op ctx st s i))
    with e -> Error (Printexc.to_string e)
  in
  let ns = Span.now_ns () - t0 in
  match result with
  | Error msg ->
      { op = k; key = Printf.sprintf "op%d" k; ns; jobs = jobs_per_op st.workload;
        sim_cycles = 0; fingerprint = ""; failure = Some ("exception: " ^ msg) }
  | Ok (o : outcome) ->
      let failure =
        match (o.error, Hashtbl.find_opt st.expected o.key) with
        | Some e, _ -> Some e
        | None, Some fp when fp <> o.fingerprint ->
            Some (Printf.sprintf "fingerprint %s, expected %s" o.fingerprint fp)
        | None, None when st.strict -> Some "no committed fingerprint"
        | None, _ -> None
      in
      { op = k; key = o.key; ns; jobs = o.jobs; sim_cycles = o.sim_cycles;
        fingerprint = o.fingerprint; failure }
