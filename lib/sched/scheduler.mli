(** Time-sliced scheduling of N DIR programs over one shared UHM.

    Each program runs on its own machine (its own memory image, one per
    address space); what is shared — and contended for — is the dynamic
    translation buffer.  The scheduler owns the global virtual clock
    (total cycles across all programs), drives [Dtb.switch_to] at context
    switches, and preempts only at INTERP boundaries
    ({!Uhm_machine.Machine.run_dir_quantum}), the points where a shared
    DTB can be flushed or repartitioned safely. *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb

type policy =
  | Round_robin         (** cycle through the runnable programs in order *)
  | Shortest_remaining  (** preemptive shortest-remaining-[dir_steps]-first:
                            always dispatch the runnable program with the
                            fewest estimated DIR instructions left *)

val policy_name : policy -> string
(** ["rr"], ["srtf"]. *)

type process = {
  asid : int;
  name : string;
  machine : Machine.t;
  total_dir_steps : int;   (** reference DIR step count, the
                               remaining-work estimate for SRTF *)
  translation_hook : (dir_addr:int -> unit) ref;
      (** dereferenced by the machine's INTERP-miss hook; the scheduler
          points it at the trace while the process runs *)
  mutable finished : Machine.status option;  (** [None] while runnable *)
  mutable slices : int;
  mutable p_cycles : int;        (** cycles executed (absolute) *)
  mutable p_dir_instrs : int;    (** INTERP transfers executed (absolute) *)
  mutable p_dtb_hits : int;      (** DTB lookups attributed to this
                                     program's slices *)
  mutable p_dtb_misses : int;
  mutable p_dtb_evictions : int; (** evictions {e performed during} this
                                     program's slices (the victims may have
                                     belonged to anyone) *)
}

val process :
  asid:int ->
  name:string ->
  total_dir_steps:int ->
  ?translation_hook:(dir_addr:int -> unit) ref ->
  Machine.t ->
  process
(** Wrap a prepared machine (see [Uhm.prepare_dtb_shared]).  Pass the same
    hook cell given to [prepare_dtb_shared] as [translation_hook]. *)

type report = {
  r_total_cycles : int;  (** global virtual time at the last completion *)
  r_switches : int;      (** dispatches of a different program *)
  r_flushes : int;       (** DTB flushes during the run *)
  r_slices : int;        (** total quanta dispatched *)
}

val switch :
  ?trace:Trace.t ->
  Dtb.t ->
  at:int ->
  from_asid:int option ->
  to_asid:int ->
  unit
(** The context switch every slicing driver performs: make [to_asid] the
    DTB's current address space, then record [Switch] at cycle [at] into
    [trace] if given, followed by [Dtb_flush] when the switch flushed the
    buffer (the Flush_on_switch policy). *)

val run :
  ?trace:Trace.t ->
  policy:policy ->
  quantum:int ->
  dtb:Dtb.t ->
  process list ->
  report
(** Slice the processes over the shared [dtb] until all have finished,
    switching the DTB's current ASID at every context switch and
    recording events into [trace] if given.  [quantum] is in DIR
    instructions and must be at least 1; a quantum no less than every
    program's [total_dir_steps] means no program is ever preempted, and
    with [Round_robin] the run degenerates to sequential execution.
    Processes must be given in ASID order 0..n-1 (matching the DTB's
    [programs]).  Per-process statistics are updated in place. *)
