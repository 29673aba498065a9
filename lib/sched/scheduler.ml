(* The shared pick order and context switch; see scheduler.mli. *)

module Dtb = Uhm_core.Dtb

type policy = Round_robin | Shortest_remaining

let policy_name = function
  | Round_robin -> "rr"
  | Shortest_remaining -> "srtf"

let pick ~policy ~slots ~last ~remaining =
  match policy with
  | Round_robin ->
      let rec scan k =
        if k = slots then None
        else
          let i = (last + 1 + k) mod slots in
          if remaining i <> None then Some i else scan (k + 1)
      in
      scan 0
  | Shortest_remaining ->
      let best = ref None in
      for i = 0 to slots - 1 do
        match (remaining i, !best) with
        | None, _ -> ()
        | Some r, Some (_, b) when b <= r -> ()
        | Some r, _ -> best := Some (i, r)
      done;
      Option.map fst !best

let switch ?trace dtb ~at ~from_asid ~to_asid =
  let before = Dtb.flushes dtb in
  Dtb.switch_to dtb ~asid:to_asid;
  match trace with
  | None -> ()
  | Some tr ->
      Trace.record tr ~at_cycle:at (Trace.Switch { from_asid; to_asid });
      if Dtb.flushes dtb > before then
        Trace.record tr ~at_cycle:at (Trace.Dtb_flush { asid = to_asid })
