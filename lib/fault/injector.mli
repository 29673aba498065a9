(** Seeded deterministic fault schedules.

    A {!spec} describes {e what} can go wrong: per-class rates (the
    probability that a fault of that class fires at any given DIR
    instruction step, sampled as geometric inter-arrival gaps) and
    explicit step-stamped events (the directed-test interface).  A {!t}
    is one program's stream: created from [(spec, asid)], it yields the
    same fault sequence on every run — the campaign layer and the
    property tests both lean on this reproducibility.

    Faults are {e consumed}: {!due} hands each arrival out exactly once,
    and the step counter it is keyed on (the machine's cumulative INTERP
    count) is monotonic even across checkpoint rollback, so a replayed
    slice never re-suffers the fault that forced the rollback. *)

type fault_class =
  | Dtb_tag     (** one bit of a resident DTB tag-array key flips *)
  | Psder_word  (** one bit of a word in the translation buffer flips *)
  | Translator  (** the next translation's install is dropped: the words
                    land in the buffer but the directory entry is lost *)
  | Mem_word    (** one bit of a level-1 data-region word flips *)

val all_classes : fault_class list

val class_name : fault_class -> string
(** ["dtb-tag"], ["psder-word"], ["translator"], ["mem-word"] — the keys
    used by trace rollups and command-line interfaces. *)

val class_of_name : string -> fault_class option

type spec = {
  seed : int;
  rates : (fault_class * float) list;
      (** probability per DIR instruction step; entries with rate [<= 0.]
          are inert but still reserve their stream split, so toggling a
          class between 0 and a positive rate never perturbs the other
          classes' schedules *)
  explicit : (int * int * fault_class) list;
      (** [(asid, step, class)]: fire a fault of [class] at the first
          INTERP of [asid] whose cumulative step count reaches [step] *)
}

val zero : spec
(** No rates, no events: a stream that never fires. *)

val is_zero : spec -> bool

val can_inject : spec -> fault_class -> bool
(** Whether the spec can ever produce a fault of the given class. *)

type fault = {
  f_class : fault_class;
  f_step : int;  (** the step the fault was scheduled for *)
  f_r1 : int;    (** target-selection random (non-negative) *)
  f_r2 : int;    (** second random, e.g. which bit to flip *)
}

type t

val create : spec -> asid:int -> t
(** The stream for one program.  Streams for different ASIDs (and
    different classes within one ASID) are split off independent PRNG
    states, so they are reproducible in isolation. *)

val due : t -> step:int -> fault list
(** All faults scheduled at or before [step], in firing order, each
    returned exactly once.  [step] must be non-decreasing across calls
    on one stream (it is the machine's monotonic INTERP count).  Before
    the stream's next scheduled step the answer is [[]], found in O(1)
    without allocating: the serve path polls on every INTERP. *)
