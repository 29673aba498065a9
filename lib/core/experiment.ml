module Model = Uhm_perfmodel.Model
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Program = Uhm_dir.Program
module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module Asm = Uhm_machine.Asm

type measured = {
  program_name : string;
  kind : Kind.t;
  dir_steps : int;
  interp : Uhm.result;
  cached : Uhm.result;
  dtb : Uhm.result;
}

let expect_halted what (r : Uhm.result) =
  match r.Uhm.status with
  | Machine.Halted -> r
  | Machine.Trapped m -> failwith (Printf.sprintf "%s trapped: %s" what m)
  | Machine.Out_of_fuel -> failwith (what ^ " ran out of fuel")
  | Machine.Running -> assert false

let measure ?timing ?backend ?(dtb_config = Dtb.paper_config)
    ?(icache_bytes = 4096) ~kind ~name (p : Program.t) =
  let run strategy =
    expect_halted
      (Printf.sprintf "%s/%s/%s" name (Kind.name kind)
         (Uhm.strategy_name strategy))
      (Uhm.run ?timing ?backend ~strategy ~kind p)
  in
  let interp = run Uhm.Interp in
  let cached = run (Uhm.Cached icache_bytes) in
  let dtb = run (Uhm.Dtb_strategy dtb_config) in
  {
    program_name = name;
    kind;
    dir_steps = interp.Uhm.dir_steps;
    interp;
    cached;
    dtb;
  }

type calibration = {
  c_d : float;
  c_x : float;
  c_g : float;
  c_d_miss : float;
  c_s1 : float;
  c_s2 : float;
  c_h_c : float;
  c_h_d : float;
}

let cat (r : Uhm.result) category =
  float_of_int
    r.Uhm.machine_stats.Machine.cat_cycles.(Machine.category_index category)

let calibrate (m : measured) =
  let steps = float_of_int m.dir_steps in
  let misses =
    float_of_int (max 1 (Option.value ~default:1 m.dtb.Uhm.dtb_misses))
  in
  {
    c_d = cat m.interp Asm.Decode /. steps;
    c_x = cat m.interp Asm.Semantic /. steps;
    c_g = cat m.dtb Asm.Translate /. misses;
    c_d_miss = cat m.dtb Asm.Decode /. misses;
    c_s1 =
      float_of_int m.dtb.Uhm.machine_stats.Machine.short_instrs /. steps;
    c_s2 =
      float_of_int m.interp.Uhm.machine_stats.Machine.dir_units_fetched
      /. steps;
    c_h_c = Option.value ~default:0. m.cached.Uhm.icache_hit_ratio;
    c_h_d = Option.value ~default:0. m.dtb.Uhm.dtb_hit_ratio;
  }

let params_of ?(timing = Timing.paper) (c : calibration) =
  {
    Model.tau1 = float_of_int timing.Timing.t1;
    tau2 = float_of_int timing.Timing.t2;
    tau_d = float_of_int timing.Timing.t_dtb;
    d = c.c_d;
    g = c.c_g;
    x = c.c_x;
    s1 = c.c_s1;
    s2 = c.c_s2;
    h_c = c.c_h_c;
    h_d = c.c_h_d;
  }

(* -- Figure 1: the space of representations -------------------------------- *)

type space_point = {
  sp_label : string;
  sp_semantic_level : string;
  sp_encoding : string;
  sp_size_bits : int;
  sp_cycles_per_instr : float;
  sp_total_cycles : int;
}

let point ~label ~level ~encoding (r : Uhm.result) =
  {
    sp_label = label;
    sp_semantic_level = level;
    sp_encoding = encoding;
    sp_size_bits = r.Uhm.static_size_bits;
    sp_cycles_per_instr = Uhm.cycles_per_dir_instruction r;
    sp_total_cycles = r.Uhm.cycles;
  }

let figure1_points ?timing ~name ast =
  let base = Uhm_compiler.Pipeline.compile ~fuse:false ast in
  let fused = Uhm_compiler.Pipeline.compile ~fuse:true ast in
  let run p strategy kind what =
    expect_halted
      (Printf.sprintf "%s/%s" name what)
      (Uhm.run ?timing ~strategy ~kind p)
  in
  let der_l1 = run base (Uhm.Der Uhm.Der_level1) Kind.Packed "der-l1" in
  let der_l2 = run base (Uhm.Der Uhm.Der_level2) Kind.Packed "der-l2" in
  let psder = run base Uhm.Psder_static Kind.Packed "psder" in
  let dir_points fuse p level =
    List.map
      (fun kind ->
        let r =
          run p Uhm.Interp kind
            (Printf.sprintf "dir%s/%s" (if fuse then "+f" else "") (Kind.name kind))
        in
        point
          ~label:(Printf.sprintf "%s/%s" level (Kind.name kind))
          ~level ~encoding:(Kind.name kind) r)
      Kind.all
  in
  [
    point ~label:"der (fast store)" ~level:"der" ~encoding:"none" der_l1;
    point ~label:"der (level 2)" ~level:"der" ~encoding:"none" der_l2;
    point ~label:"psder-static" ~level:"psder" ~encoding:"none" psder;
  ]
  @ dir_points false base "dir"
  @ dir_points true fused "dir+superops"

(* -- DTB geometry sweeps ---------------------------------------------------- *)

type dtb_point = {
  dp_config : Dtb.config;
  dp_capacity_words : int;
  dp_hit_ratio : float;
  dp_misses : int;
  dp_evictions : int;
  dp_overflow_allocations : int;
}

let dtb_point_of_config encoded config =
  let r = Dtb_sim.replay_encoded ~config encoded in
  {
    dp_config = config;
    dp_capacity_words = Dtb.config_capacity_words config;
    dp_hit_ratio = r.Dtb_sim.hit_ratio;
    dp_misses = r.Dtb_sim.misses;
    dp_evictions = r.Dtb_sim.evictions;
    dp_overflow_allocations = r.Dtb_sim.overflow_allocations;
  }

let dtb_sweep ?domains ~kind ~configs p =
  let encoded = Codec.encode kind p in
  Sweep.map ?domains (dtb_point_of_config encoded) configs

let encode_programs ?domains ~kind programs =
  Sweep.map ?domains
    (fun (name, p) -> (name, Codec.encode kind p, Uhm.dir_steps_memoized p))
    programs

(* the full (program x config) grid as one flat job list, so a parallel
   sweep balances across both axes; regrouped per program afterwards.
   The encode pre-pass's dir_steps are the point sweep's cost hints:
   replay time is proportional to trace length, so long-program points
   start first and the grid doesn't end on a lone slow worker.  Cell
   index = flat (program-major, config-minor) grid index, matching the
   journal layout. *)
let dtb_grid_slots ?domains ?supervision ?cached ?cell_hook ~kind ~configs
    names_and_programs =
  let encodeds = encode_programs ?domains ~kind names_and_programs in
  let points =
    Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains
      ~cost:(fun (_, steps, _) -> steps)
      (fun (encoded, _, c) -> dtb_point_of_config encoded c)
      (List.concat_map
         (fun (_, encoded, steps) ->
           List.map (fun c -> (encoded, steps, c)) configs)
         encodeds)
  in
  let per_program = List.length configs in
  List.mapi
    (fun i (name, _, _) ->
      (name, List.filteri (fun j _ -> j / per_program = i) points))
    encodeds

(* -- Whole-suite summary (the `summary` dashboard and the timed sweep) ------ *)

type summary_row = {
  sr_program : string;
  sr_lang : string;
  sr_dir_steps : int;
  sr_bits_per_instr : float;
  sr_t1_ci : float;
  sr_t3_ci : float;
  sr_t2_ci : float;
  sr_dtb_hit_ratio : float;
  sr_f2_measured : float;
}

let summary_jobs () =
  List.map
    (fun e ->
      ( e.Uhm_workload.Suite.name,
        "algol",
        fun () -> Uhm_workload.Suite.compile ~fuse:false e ))
    Uhm_workload.Suite.all
  @ List.map
      (fun e ->
        ( e.Uhm_ftn.Suite.name,
          "ftn",
          fun () -> Uhm_ftn.Suite.compile ~fuse:false e ))
      Uhm_ftn.Suite.all

let summary_row_of ?fuel ?backend (name, lang, compile) =
  let p = compile () in
  let e = Codec.encode Kind.Digram p in
  let run what strategy =
    expect_halted
      (Printf.sprintf "%s/%s" name what)
      (Uhm.run_encoded ?fuel ?backend ~strategy e)
  in
  let t1 = run "interp" Uhm.Interp in
  let t3 = run "cached" (Uhm.Cached 4096) in
  let t2 = run "dtb" (Uhm.Dtb_strategy Dtb.paper_config) in
  let ci = Uhm.cycles_per_dir_instruction in
  {
    sr_program = name;
    sr_lang = lang;
    sr_dir_steps = t1.Uhm.dir_steps;
    sr_bits_per_instr = Codec.bits_per_instruction e;
    sr_t1_ci = ci t1;
    sr_t3_ci = ci t3;
    sr_t2_ci = ci t2;
    sr_dtb_hit_ratio = Option.value ~default:0. t2.Uhm.dtb_hit_ratio;
    sr_f2_measured = (ci t1 -. ci t2) /. ci t2 *. 100.;
  }

let summary_filtered_jobs ?names () =
  let jobs = summary_jobs () in
  match names with
  | None -> jobs
  | Some names -> List.filter (fun (n, _, _) -> List.mem n names) jobs

let summary_names ?names () =
  List.map (fun (n, _, _) -> n) (summary_filtered_jobs ?names ())

let summary_rows ?domains ?names ?backend () =
  Sweep.map ?domains
    (fun j -> summary_row_of ?backend j)
    (summary_filtered_jobs ?names ())

let summary_rows_slots ?domains ?names ?backend ?supervision ?cached ?cell_hook
    ?cell_fuel () =
  Sweep.map_supervised ?supervision ?cached ?cell_hook ?domains
    (summary_row_of ?fuel:cell_fuel ?backend)
    (summary_filtered_jobs ?names ())

let capacity_configs () =
  (* one overflow block per entry: enough for the longest translation at
     4-word units *)
  List.map
    (fun sets ->
      { Dtb.paper_config with Dtb.sets; overflow_blocks = sets * 4 })
    [ 8; 16; 32; 64; 128; 256 ]

let assoc_configs () =
  (* constant 256 entries; assoc 0 = fully associative *)
  [
    { Dtb.sets = 256; assoc = 1; unit_words = 4; overflow_blocks = 256 };
    { Dtb.sets = 128; assoc = 2; unit_words = 4; overflow_blocks = 256 };
    { Dtb.sets = 64; assoc = 4; unit_words = 4; overflow_blocks = 256 };
    { Dtb.sets = 32; assoc = 8; unit_words = 4; overflow_blocks = 256 };
    { Dtb.sets = 1; assoc = 256; unit_words = 4; overflow_blocks = 256 };
  ]

let alloc_configs () =
  (* roughly constant buffer capacity; unit 3 chains often, unit 8 never *)
  [
    { Dtb.sets = 64; assoc = 4; unit_words = 3; overflow_blocks = 512 };
    { Dtb.sets = 64; assoc = 4; unit_words = 4; overflow_blocks = 256 };
    { Dtb.sets = 64; assoc = 4; unit_words = 6; overflow_blocks = 0 };
    { Dtb.sets = 64; assoc = 4; unit_words = 8; overflow_blocks = 0 };
  ]
