(* Time-sliced scheduling of N programs over one shared DTB; see
   scheduler.mli. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb

type policy = Round_robin | Shortest_remaining

let policy_name = function
  | Round_robin -> "rr"
  | Shortest_remaining -> "srtf"

type process = {
  asid : int;
  name : string;
  machine : Machine.t;
  total_dir_steps : int;
  translation_hook : (dir_addr:int -> unit) ref;
  mutable finished : Machine.status option;
  mutable slices : int;
  mutable p_cycles : int;
  mutable p_dir_instrs : int;
  mutable p_dtb_hits : int;
  mutable p_dtb_misses : int;
  mutable p_dtb_evictions : int;
}

let process ~asid ~name ~total_dir_steps ?translation_hook machine =
  {
    asid;
    name;
    machine;
    total_dir_steps;
    translation_hook =
      (match translation_hook with
      | Some r -> r
      | None -> ref (fun ~dir_addr:_ -> ()));
    finished = None;
    slices = 0;
    p_cycles = 0;
    p_dir_instrs = 0;
    p_dtb_hits = 0;
    p_dtb_misses = 0;
    p_dtb_evictions = 0;
  }

type report = {
  r_total_cycles : int;
  r_switches : int;
  r_flushes : int;
  r_slices : int;
}

(* Pick the next runnable process.  Round_robin scans circularly from the
   process after the last one dispatched; Shortest_remaining picks the
   smallest estimated remaining DIR steps (ties broken by lowest ASID), so
   it is preemptive: a long program gets the machine only while nothing
   shorter is runnable. *)
let pick ~policy ~procs ~last_index =
  let n = Array.length procs in
  match policy with
  | Round_robin ->
      let rec scan k =
        if k = n then None
        else
          let i = (last_index + 1 + k) mod n in
          if procs.(i).finished = None then Some i else scan (k + 1)
      in
      scan 0
  | Shortest_remaining ->
      let best = ref None in
      Array.iteri
        (fun i p ->
          if p.finished = None then
            let remaining = max 0 (p.total_dir_steps - p.p_dir_instrs) in
            match !best with
            | Some (_, r) when r <= remaining -> ()
            | _ -> best := Some (i, remaining))
        procs;
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

let run ?trace ~policy ~quantum ~dtb processes =
  if processes = [] then invalid_arg "Scheduler.run: no processes";
  if quantum < 1 then invalid_arg "Scheduler.run: quantum must be >= 1";
  let procs = Array.of_list processes in
  Array.iteri
    (fun i p ->
      if p.asid <> i then
        invalid_arg "Scheduler.run: process ASIDs must be 0..n-1 in order")
    procs;
  let tell at_cycle kind =
    match trace with
    | Some tr -> Trace.record tr ~at_cycle kind
    | None -> ()
  in
  let clock = ref 0 in
  let switches = ref 0 in
  let slices = ref 0 in
  let flushes0 = Dtb.flushes dtb in
  let last_index = ref (-1) in
  let running = ref true in
  while !running do
    match pick ~policy ~procs ~last_index:!last_index with
    | None -> running := false
    | Some i ->
        let p = procs.(i) in
        if i <> !last_index then begin
          let from_asid =
            if !last_index < 0 then None else Some procs.(!last_index).asid
          in
          switch ?trace dtb ~at:!clock ~from_asid ~to_asid:p.asid;
          incr switches
        end;
        last_index := i;
        let stats = Machine.stats p.machine in
        let c0 = stats.Machine.cycles in
        let h0 = Dtb.hits dtb
        and m0 = Dtb.misses dtb
        and e0 = Dtb.evictions dtb in
        (* the trace tap sees global virtual time: the clock at slice
           start plus the cycles this machine has run since *)
        (p.translation_hook :=
           fun ~dir_addr ->
             tell
               (!clock + (Machine.stats p.machine).Machine.cycles - c0)
               (Trace.Translation { asid = p.asid; dir_addr }));
        let outcome = Machine.run_dir_quantum p.machine ~quantum in
        (p.translation_hook := fun ~dir_addr:_ -> ());
        clock := !clock + (stats.Machine.cycles - c0);
        incr slices;
        p.slices <- p.slices + 1;
        p.p_cycles <- stats.Machine.cycles;
        p.p_dir_instrs <- stats.Machine.interp_count;
        p.p_dtb_hits <- p.p_dtb_hits + (Dtb.hits dtb - h0);
        p.p_dtb_misses <- p.p_dtb_misses + (Dtb.misses dtb - m0);
        p.p_dtb_evictions <- p.p_dtb_evictions + (Dtb.evictions dtb - e0);
        (match outcome with
        | Machine.Yielded -> tell !clock (Trace.Quantum_expiry { asid = p.asid })
        | Machine.Done status ->
            p.finished <- Some status;
            tell !clock
              (Trace.Completion
                 { asid = p.asid; ok = status = Machine.Halted }))
  done;
  {
    r_total_cycles = !clock;
    r_switches = !switches;
    r_flushes = Dtb.flushes dtb - flushes0;
    r_slices = !slices;
  }
