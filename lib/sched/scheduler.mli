(** The scheduling disciplines every slicing driver shares: the pick
    order, and the context switch.

    Programs share one DTB, each on its own machine; the drivers
    ([Uhm_fault.Resilient] for a closed mix, the serve kernel for open
    arrivals) own the global virtual clock and preempt only at INTERP
    boundaries ({!Uhm_machine.Machine.run_dir_quantum}), the points where
    a shared DTB can be flushed or repartitioned safely.  They ask
    {!pick} which slot runs next and perform every dispatch of a
    different slot through {!switch}. *)

module Dtb := Uhm_core.Dtb

type policy =
  | Round_robin         (** cycle through the runnable programs in order *)
  | Shortest_remaining  (** preemptive shortest-remaining-[dir_steps]-first:
                            always dispatch the runnable program with the
                            fewest estimated DIR instructions left *)

val policy_name : policy -> string
(** ["rr"], ["srtf"]. *)

val pick :
  policy:policy -> slots:int -> last:int -> remaining:(int -> int option) ->
  int option
(** The next slot to dispatch among [0..slots-1], or [None] when nothing
    is runnable.  [remaining i] is [None] when slot [i] has nothing
    runnable and otherwise its estimated DIR steps left; [last] is the
    slot dispatched last ([-1] before the first dispatch).
    [Round_robin] scans circularly from the slot after [last];
    [Shortest_remaining] takes the smallest estimate, ties to the lowest
    slot, so a long program gets the machine only while nothing shorter
    is runnable. *)

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
