(** The per-program resilient-attempt engine: one program on one machine
    over a shared DTB, with the whole fault machinery threaded through
    the dynamic-translation hook points.

    - {b Injection} ({!Injector}): at every INTERP boundary the faults
      due at the current DIR step are applied — DTB tag-key bit flips,
      translation-buffer word bit flips, dropped translator installs and
      level-1 data-word bit flips.  A silent injector is never polled.
    - {b Detection and recovery}: with guards on, per-entry {!Guard}
      checksums are verified on every DTB hit; a mismatch invalidates the
      entry and retranslates, with per-DIR-address retry counting and
      exponential cycle backoff.  Data-word faults are caught by a scrub
      at slice boundaries and recovered by rolling back to the last
      checkpoint.
    - {b Graceful degradation}: a watchdog over recovery events (or an
      exhausted per-address retry budget) downgrades the program at the
      next slice boundary onto a pure-interpretation machine.

    The drivers own the clock and ask {!Uhm_sched.Scheduler.pick} which
    program runs next, switch to it with {!Uhm_sched.Scheduler.switch}
    and hand it to {!slice}.  [Resilient.run_encoded] slices a fixed
    mix (at the zero config, the plain multiprogrammed mix and, for one
    program, the [Resilient.solo] run); the serve kernel slices
    one attempt per admitted job. *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb
module Trace := Uhm_sched.Trace

type config = {
  injector : Injector.spec;
  guards : bool;                  (** verify per-entry checksums on hits *)
  checkpoint_every : int option;  (** DIR steps between checkpoints;
                                      required when the injector can
                                      produce [Mem_word] faults *)
  retry_limit : int;              (** per-DIR-address detections before a
                                      forced downgrade *)
  backoff_cycles : int;           (** base of the exponential recovery
                                      backoff (doubles per attempt,
                                      capped at 64x) *)
  watchdog_window : int;          (** sliding window, in DIR steps *)
  watchdog_threshold : int;       (** recovery events within the window
                                      that trigger a downgrade *)
}

val zero : config
(** No faults, no guards, no checkpoints. *)

val protected : ?checkpoint_every:int -> Injector.spec -> config
(** Guards on, checkpoints on iff the spec can produce [Mem_word]
    faults (default cadence 1024 DIR steps), default retry/watchdog
    parameters. *)

val interp_cycles_per_dir : int
(** Cycles one DIR instruction of pure interpretation is worth: the
    factor that turns a DIR-step quantum into the cycle budget a
    downgraded (run_for-sliced) machine is given per slice. *)

val graft_interp : layout:Uhm_psder.Layout.t -> Machine.t -> Machine.t -> unit
(** [graft_interp ~layout m_old m_new] carries the architectural state
    of [m_old] — a translating machine suspended at a slice boundary, on
    an INTERP word — into [m_new], a fresh {!Uhm_core.Uhm.prepare_interp}
    machine of the same program: stack, frame and data registers and
    regions, and the DIR decode position.  The watchdog downgrade. *)

val arch_fingerprint : layout:Uhm_psder.Layout.t -> Machine.t -> int
(** Fingerprint of sp/fp/dtop, the live operand stack and the live data
    region — the recovery invariant's state summary. *)

type env
(** What every program of one run shares: the DTB, the trace, the
    machine parameters and the fault config. *)

val env :
  timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  dtb:Dtb.t ->
  trace:Trace.t ->
  tagged_keys:bool ->
  on_detect:(int -> int -> unit) ->
  config ->
  env
(** [tagged_keys] says the DTB keys entries by ASID (a shared
    Tagged/Partitioned directory with more than one program), so a
    rollback can drop just its program's entries; otherwise a rollback
    flushes the whole buffer.  [on_detect at asid] is called at every
    machinery-level fault detection with its virtual time. *)

val armed : env -> bool
(** The injector can fire.  Only then are faults polled, host
    exceptions of a corrupted machine turned into traps, and unreadable
    end states reported instead of raised. *)

type mode = Translating | Downgraded

type t = private {
  asid : int;
  encoded : Uhm_encoding.Codec.encoded;
  dir_steps : int;               (** reference DIR step count *)
  interp0 : bool;                (** interpreted from the start *)
  inj : Injector.t;
  guard : Guard.t;
  retries : (int, int) Hashtbl.t;
  watchdog : int Queue.t;
  mutable machine : Machine.t;
  mutable mode : mode;
  mutable translating : int;
  (** DIR address of the open install; [-1] when none is open *)
  mutable doomed : bool;
  mutable ck : Machine.checkpoint option;
  mutable ck_step : int;
  mutable outstanding : int list;
  mutable downgrade_pending : bool;
  mutable finished : Machine.status option;  (** [None] while runnable *)
  mutable out_prefix : string;   (** output produced before a downgrade *)
  mutable base_cycles : int;     (** cycles run before a downgrade *)
  mutable vbase : int;
  mutable slices : int;
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable rolled_back : int;
}

val create :
  env -> asid:int -> stream:int -> interp0:bool -> Uhm_encoding.Codec.encoded -> t
(** A program bound to DTB/trace address space [asid], drawing its
    faults from injector stream [stream].  With [interp0] it runs as
    pure interpretation from the start (a brownout admission). *)

val cycles : t -> int
(** Cycles run so far, across a downgrade. *)

val remaining : t -> int option
(** [None] once finished; otherwise the shortest-remaining-first
    estimate, [dir_steps] less the INTERP transfers the current machine
    has executed — the [remaining] argument of
    {!Uhm_sched.Scheduler.pick}. *)

val slice : env -> t -> clock:int -> quantum:int -> int
(** Run one slice of [quantum] DIR steps (a downgraded program gets the
    equivalent cycle budget) and return the cycles it took.  [clock] is
    the global virtual time at slice start, the base of the slice's
    trace stamps.  Around the run: the first checkpoint before it; after
    it, an open install is aborted, then outstanding data faults are
    rolled back, or a pending downgrade taken, or a periodic checkpoint.
    [finished] is set once the program is done. *)

val end_state : env -> t -> string * int * bool
(** The output and architectural fingerprint of a finished program, and
    whether they could be read.  A fault-crashed machine whose state is
    unreadable yields [("", 0, false)] when the env is {!armed}. *)
