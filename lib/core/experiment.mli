(** The experiment harness: measured quantities behind every reproduced
    table and figure (see DESIGN.md's experiment index).

    All functions are deterministic and pure up to caching; bench
    targets format the returned records with [Uhm_report.Table]. *)

module Model := Uhm_perfmodel.Model
module Kind := Uhm_encoding.Kind
module Program := Uhm_dir.Program

type measured = {
  program_name : string;
  kind : Kind.t;
  dir_steps : int;
  interp : Uhm.result;
  cached : Uhm.result;
  dtb : Uhm.result;
}

val measure : ?timing:Uhm_machine.Timing.t
  -> ?backend:Uhm_machine.Machine.backend -> ?dtb_config:Dtb.config
  -> ?icache_bytes:int -> kind:Kind.t -> name:string -> Program.t -> measured

(** Per-DIR-instruction cost components extracted from simulation, the
    measured counterparts of the paper's parameters. *)
type calibration = {
  c_d : float;       (** decode + dispatch cycles per instruction (interp) *)
  c_x : float;       (** semantic cycles per instruction (interp) *)
  c_g : float;       (** generation cycles per translated instruction *)
  c_d_miss : float;  (** decode cycles per DTB miss *)
  c_s1 : float;      (** short words executed per instruction (DTB) *)
  c_s2 : float;      (** 16-bit DIR units fetched per instruction (interp) *)
  c_h_c : float;     (** instruction-cache hit ratio *)
  c_h_d : float;     (** DTB hit ratio *)
}

val calibrate : measured -> calibration

val params_of : ?timing:Uhm_machine.Timing.t -> calibration -> Model.params
(** Analytic-model parameters from measured values. *)

(** One point of the Figure-1 representation space. *)
type space_point = {
  sp_label : string;          (** e.g. "dir/huffman", "psder", "der" *)
  sp_semantic_level : string; (** "der" | "psder" | "dir" | "dir+superops" *)
  sp_encoding : string;
  sp_size_bits : int;
  sp_cycles_per_instr : float;
  sp_total_cycles : int;
}

val figure1_points : ?timing:Uhm_machine.Timing.t -> name:string
  -> Uhm_hlr.Ast.program -> space_point list
(** Size and interpretation time of one source program across the whole
    representation space: DER (level-1 and level-2 resident), static PSDER,
    and interpreted DIR at every encoding, both with and without superoperator
    fusion. *)

(** DTB geometry sweep (Figure 2 behavioural validation, ablations X2/X3). *)
type dtb_point = {
  dp_config : Dtb.config;
  dp_capacity_words : int;
  dp_hit_ratio : float;
  dp_misses : int;
  dp_evictions : int;
  dp_overflow_allocations : int;
}

val dtb_sweep : ?domains:int -> kind:Kind.t -> configs:Dtb.config list
  -> Program.t -> dtb_point list
(** Replay one program's INTERP trace against each configuration; the
    configurations are evaluated through {!Sweep} ([?domains] as in
    {!Sweep.map}), results in configuration order. *)

val encode_programs :
  ?domains:int -> kind:Kind.t -> (string * Program.t) list ->
  (string * Uhm_encoding.Codec.encoded * int) list
(** The encode pre-pass every grid shares: each named program encoded
    with [kind], with its reference DIR step count
    ({!Uhm.dir_steps_memoized}, cached on the program, so later lookups
    are hits) — the SRTF estimate and the grids' cost hint.  One
    {!Sweep.map} over the programs ([?domains] as there), unsupervised:
    it is a grid's input, not a cell. *)

val dtb_grid_slots :
  ?domains:int ->
  ?supervision:Sweep.supervision ->
  ?cached:(int -> dtb_point option) ->
  ?cell_hook:(index:int -> attempts:int -> dtb_point Sweep.slot -> unit) ->
  kind:Kind.t -> configs:Dtb.config list ->
  (string * Program.t) list -> (string * dtb_point Sweep.slot list) list
(** The full (program x configuration) grid as one flat parallel sweep
    under campaign supervision ({!Sweep.map_pool_supervised}), regrouped
    per program in submission order — the engine behind Figure 2 and the
    X2/X3 ablations.  A failing point is retried and then quarantined
    instead of aborting the grid, and [cached]/[cell_hook] plug in a
    {!Uhm_campaign} journal.  Cell indices are the flat program-major,
    configuration-minor grid index.  The encode pre-pass (one sweep over
    the programs) stays unsupervised: it is the grid's input, not a
    cell. *)

(** One row of the whole-suite summary dashboard: a program run under the
    paper's three machines at the digram encoding. *)
type summary_row = {
  sr_program : string;
  sr_lang : string;             (** "algol" | "ftn" *)
  sr_dir_steps : int;
  sr_bits_per_instr : float;
  sr_t1_ci : float;             (** interp cycles per DIR instruction *)
  sr_t3_ci : float;             (** icache cycles per DIR instruction *)
  sr_t2_ci : float;             (** DTB cycles per DIR instruction *)
  sr_dtb_hit_ratio : float;
  sr_f2_measured : float;       (** (T1-T2)/T2, percent *)
}

val summary_names : ?names:string list -> unit -> string list
(** The program name of each summary cell, in submission order — what
    cell index [i] of {!summary_rows}/{!summary_rows_slots} is, for
    labelling quarantined rows and building a journal fingerprint. *)

val summary_rows : ?domains:int -> ?names:string list
  -> ?backend:Uhm_machine.Machine.backend -> unit -> summary_row list
(** Every workload (both language suites, or just [names]) under
    interp/cached/DTB — the `summary` dashboard's data, evaluated as a
    parallel sweep with byte-identical results at any domain count.
    Compilation, encoding and the three simulations all happen inside the
    per-program job.  A program that traps or exhausts fuel fails its
    whole row (with [Failure] naming the program and machine). *)

val summary_rows_slots :
  ?domains:int ->
  ?names:string list ->
  ?backend:Uhm_machine.Machine.backend ->
  ?supervision:Sweep.supervision ->
  ?cached:(int -> summary_row option) ->
  ?cell_hook:(index:int -> attempts:int -> summary_row Sweep.slot -> unit) ->
  ?cell_fuel:int ->
  unit -> summary_row Sweep.slot list
(** {!summary_rows} under campaign supervision: one cell per program (in
    submission order); a failing row is quarantined instead of aborting
    the sweep.  [cell_fuel] bounds each cell's three simulations with the
    PR 4 fuel machinery — a wedged (non-terminating) program exhausts its
    deterministic budget, fails the cell, and ends up quarantined rather
    than hanging the campaign.  Completed slots are byte-identical to the
    corresponding {!summary_rows} rows. *)

val capacity_configs : unit -> Dtb.config list
(** Same geometry as {!Dtb.paper_config} at 1/8x .. 4x capacity. *)

val assoc_configs : unit -> Dtb.config list
(** Direct-mapped through fully-associative at the paper capacity. *)

val alloc_configs : unit -> Dtb.config list
(** Unit sizes from chained 3-word units to fixed 8-word units at roughly
    constant capacity. *)
