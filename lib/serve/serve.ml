(* The open-arrival serve driver; see serve.mli.

   There is no loop here: a plain service run is Kernel.run, the one
   slicing kernel shared with Chaos.run, under the zero fault config.
   The records and [slo] are the kernel's own. *)

include Kernel

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ?admission
    ?economy ~policy ~quantum ~config ~slots ~templates ~arrivals () =
  (Kernel.run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler
     ?admission ?economy ~policy ~quantum ~config ~fconfig:Kernel.zero ~slots
     ~templates ~arrivals ())
    .k_result
