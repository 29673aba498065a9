(* Event-trace observability for the multiprogramming scheduler; see
   trace.mli.  The ring keeps the last [capacity] events; the per-program
   tallies are maintained on every record, so rollups stay exact no matter
   how many events the ring dropped. *)

type kind =
  | Switch of { from_asid : int option; to_asid : int }
  | Dtb_flush of { asid : int }
  | Translation of { asid : int; dir_addr : int }
  | Quantum_expiry of { asid : int }
  | Completion of { asid : int; ok : bool }
  | Fault_injected of { asid : int; fclass : string }
  | Fault_detected of { asid : int; fclass : string }
  | Recovery_retry of { asid : int; dir_addr : int; attempt : int }
  | Rollback of { asid : int; pages : int }
  | Downgrade of { asid : int }
  | Job_queued of { job : int; depth : int }
  | Job_shed of { job : int; depth : int }
  | Job_admitted of { job : int; asid : int; wait : int; depth : int }
  | Asid_evicted of { asid : int; entries : int; cold : bool }
  | Deadline_miss of { job : int; asid : int; by : int }
  | Job_retry of { job : int; asid : int; attempt : int }
  | Job_failed of { job : int; asid : int; attempts : int }
  | Interp_admit of { job : int; asid : int }
  | Brownout of { from_stage : int; to_stage : int }
  | Slot_quarantined of { asid : int; entries : int; until : int }

type event = { at_cycle : int; kind : kind }

type tally = {
  mutable dispatches : int;
  mutable flushes : int;
  mutable translations : int;
  mutable expiries : int;
  mutable injections : int;
  mutable detections : int;
  mutable retries : int;
  mutable rollbacks : int;
  mutable downgrades : int;
  mutable admits : int;
  mutable evicts : int;
  mutable deadline_misses : int;
  mutable job_retries : int;
  mutable job_failures : int;
  mutable interp_admits : int;
  mutable quarantines : int;
}

type counts = {
  c_dispatches : int;
  c_flushes : int;
  c_translations : int;
  c_expiries : int;
  c_injections : int;
  c_detections : int;
  c_retries : int;
  c_rollbacks : int;
  c_downgrades : int;
  c_admits : int;
  c_evicts : int;
  c_deadline_misses : int;
  c_job_retries : int;
  c_job_failures : int;
  c_interp_admits : int;
  c_quarantines : int;
}

type t = {
  capacity : int;
  ring : event array;
  mutable recorded : int;   (* total events ever recorded *)
  tallies : (int, tally) Hashtbl.t;
  (* the tally of the ASID [record] last touched: consecutive events
     mostly concern one ASID, so the table is probed only on a change *)
  mutable last_asid : int;
  mutable last_tally : tally;
  (* exact per-fault-class rollups, across all ASIDs *)
  injected_classes : (string, int) Hashtbl.t;
  detected_classes : (string, int) Hashtbl.t;
  (* exact load-service rollups; queued/shed jobs have no ASID yet, so
     these are global counters, not per-ASID tallies *)
  mutable queued_total : int;
  mutable shed_total : int;
  (* brownout-controller rollups: stage transitions are global service
     state, not per-ASID *)
  mutable brownout_transitions : int;
  mutable brownout_peak : int;
}

let dummy = { at_cycle = -1; kind = Quantum_expiry { asid = -1 } }

let zero_tally () =
  { dispatches = 0; flushes = 0; translations = 0; expiries = 0;
    injections = 0; detections = 0; retries = 0; rollbacks = 0;
    downgrades = 0; admits = 0; evicts = 0; deadline_misses = 0;
    job_retries = 0; job_failures = 0; interp_admits = 0; quarantines = 0 }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    capacity;
    ring = Array.make capacity dummy;
    recorded = 0;
    tallies = Hashtbl.create 8;
    last_asid = min_int;
    last_tally = zero_tally ();
    injected_classes = Hashtbl.create 8;
    detected_classes = Hashtbl.create 8;
    queued_total = 0;
    shed_total = 0;
    brownout_transitions = 0;
    brownout_peak = 0;
  }

let capacity t = t.capacity
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - t.capacity)

let tally_for t asid =
  if asid = t.last_asid then t.last_tally
  else begin
    let y =
      match Hashtbl.find_opt t.tallies asid with
      | Some y -> y
      | None ->
          let y = zero_tally () in
          Hashtbl.add t.tallies asid y;
          y
    in
    t.last_asid <- asid;
    t.last_tally <- y;
    y
  end

let bump_class tbl fclass =
  Hashtbl.replace tbl fclass
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fclass))

let record t ~at_cycle kind =
  t.ring.(t.recorded mod t.capacity) <- { at_cycle; kind };
  t.recorded <- t.recorded + 1;
  match kind with
  | Switch { to_asid; _ } ->
      let y = tally_for t to_asid in
      y.dispatches <- y.dispatches + 1
  | Dtb_flush { asid } ->
      let y = tally_for t asid in
      y.flushes <- y.flushes + 1
  | Translation { asid; _ } ->
      let y = tally_for t asid in
      y.translations <- y.translations + 1
  | Quantum_expiry { asid } ->
      let y = tally_for t asid in
      y.expiries <- y.expiries + 1
  | Completion _ -> ()
  | Fault_injected { asid; fclass } ->
      let y = tally_for t asid in
      y.injections <- y.injections + 1;
      bump_class t.injected_classes fclass
  | Fault_detected { asid; fclass } ->
      let y = tally_for t asid in
      y.detections <- y.detections + 1;
      bump_class t.detected_classes fclass
  | Recovery_retry { asid; _ } ->
      let y = tally_for t asid in
      y.retries <- y.retries + 1
  | Rollback { asid; _ } ->
      let y = tally_for t asid in
      y.rollbacks <- y.rollbacks + 1
  | Downgrade { asid } ->
      let y = tally_for t asid in
      y.downgrades <- y.downgrades + 1
  | Job_queued _ -> t.queued_total <- t.queued_total + 1
  | Job_shed _ -> t.shed_total <- t.shed_total + 1
  | Job_admitted { asid; _ } ->
      let y = tally_for t asid in
      y.admits <- y.admits + 1
  | Asid_evicted { asid; _ } ->
      let y = tally_for t asid in
      y.evicts <- y.evicts + 1
  | Deadline_miss { asid; _ } ->
      let y = tally_for t asid in
      y.deadline_misses <- y.deadline_misses + 1
  | Job_retry { asid; _ } ->
      let y = tally_for t asid in
      y.job_retries <- y.job_retries + 1
  | Job_failed { asid; _ } ->
      let y = tally_for t asid in
      y.job_failures <- y.job_failures + 1
  | Interp_admit { asid; _ } ->
      let y = tally_for t asid in
      y.interp_admits <- y.interp_admits + 1
  | Brownout { to_stage; _ } ->
      t.brownout_transitions <- t.brownout_transitions + 1;
      if to_stage > t.brownout_peak then t.brownout_peak <- to_stage
  | Slot_quarantined { asid; _ } ->
      let y = tally_for t asid in
      y.quarantines <- y.quarantines + 1

(* Buffered events, oldest first. *)
let events t =
  let kept = min t.recorded t.capacity in
  List.init kept (fun i ->
      t.ring.((t.recorded - kept + i) mod t.capacity))

let counts t asid =
  match Hashtbl.find_opt t.tallies asid with
  | None ->
      { c_dispatches = 0; c_flushes = 0; c_translations = 0; c_expiries = 0;
        c_injections = 0; c_detections = 0; c_retries = 0; c_rollbacks = 0;
        c_downgrades = 0; c_admits = 0; c_evicts = 0; c_deadline_misses = 0;
        c_job_retries = 0; c_job_failures = 0; c_interp_admits = 0;
        c_quarantines = 0 }
  | Some y ->
      {
        c_dispatches = y.dispatches;
        c_flushes = y.flushes;
        c_translations = y.translations;
        c_expiries = y.expiries;
        c_injections = y.injections;
        c_detections = y.detections;
        c_retries = y.retries;
        c_rollbacks = y.rollbacks;
        c_downgrades = y.downgrades;
        c_admits = y.admits;
        c_evicts = y.evicts;
        c_deadline_misses = y.deadline_misses;
        c_job_retries = y.job_retries;
        c_job_failures = y.job_failures;
        c_interp_admits = y.interp_admits;
        c_quarantines = y.quarantines;
      }

let queued_total t = t.queued_total
let shed_total t = t.shed_total
let brownout_transitions t = t.brownout_transitions
let brownout_peak t = t.brownout_peak

let tallies t =
  Hashtbl.fold (fun asid _ acc -> asid :: acc) t.tallies []
  |> List.sort compare
  |> List.map (fun asid -> (asid, counts t asid))

let classes_of tbl =
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [] |> List.sort compare

let injected_by_class t = classes_of t.injected_classes
let detected_by_class t = classes_of t.detected_classes

(* -- Chrome trace_event export ----------------------------------------------
   The JSON-array flavour of the trace_event format: "X" complete events
   for the scheduler slices (reconstructed from the Switch events in the
   buffered window), "i" instant events for flushes, expiries and
   completions.  Simulated cycles are reported as microseconds — the
   about://tracing timeline then reads directly in cycles. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome ?(pid = 1) ~names ~end_cycle t =
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string b ",\n  ";
        Buffer.add_string b s)
      fmt
  in
  Buffer.add_string b "[\n  ";
  let name asid = json_escape (names asid) in
  let slice ~asid ~from_cycle ~to_cycle =
    emit
      {|{"name":"%s","cat":"slice","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d}|}
      (name asid) from_cycle
      (max 0 (to_cycle - from_cycle))
      pid asid
  in
  let instant ?(cat = "sched") ~label ~asid ~at () =
    emit
      {|{"name":"%s","cat":"%s","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
      label cat at pid asid
  in
  let open_slice = ref None in
  List.iter
    (fun { at_cycle; kind } ->
      match kind with
      | Switch { to_asid; _ } ->
          (match !open_slice with
          | Some (asid, from_cycle) ->
              slice ~asid ~from_cycle ~to_cycle:at_cycle
          | None -> ());
          open_slice := Some (to_asid, at_cycle)
      | Dtb_flush { asid } ->
          instant ~label:"dtb_flush" ~asid ~at:at_cycle ()
      | Translation { asid; dir_addr } ->
          emit
            {|{"name":"translate@%d","cat":"dtb","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            dir_addr at_cycle pid asid
      | Quantum_expiry { asid } ->
          instant ~label:"quantum_expiry" ~asid ~at:at_cycle ()
      | Completion { asid; ok } ->
          instant ~label:(if ok then "done" else "stopped") ~asid ~at:at_cycle ()
      | Fault_injected { asid; fclass } ->
          instant ~cat:"fault"
            ~label:(Printf.sprintf "inject:%s" (json_escape fclass))
            ~asid ~at:at_cycle ()
      | Fault_detected { asid; fclass } ->
          instant ~cat:"fault"
            ~label:(Printf.sprintf "detect:%s" (json_escape fclass))
            ~asid ~at:at_cycle ()
      | Recovery_retry { asid; dir_addr; attempt } ->
          emit
            {|{"name":"retry@%d#%d","cat":"fault","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            dir_addr attempt at_cycle pid asid
      | Rollback { asid; pages } ->
          emit
            {|{"name":"rollback(%dpg)","cat":"fault","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            pages at_cycle pid asid
      | Downgrade { asid } ->
          instant ~cat:"fault" ~label:"downgrade:interp" ~asid ~at:at_cycle ()
      | Job_queued { job; depth } ->
          emit
            {|{"name":"queue_depth","cat":"serve","ph":"C","ts":%d,"pid":%d,"args":{"depth":%d}}|}
            at_cycle pid depth;
          emit
            {|{"name":"queued:j%d","cat":"serve","ph":"i","ts":%d,"pid":%d,"tid":0,"s":"p"}|}
            job at_cycle pid
      | Job_shed { job; depth } ->
          emit
            {|{"name":"queue_depth","cat":"serve","ph":"C","ts":%d,"pid":%d,"args":{"depth":%d}}|}
            at_cycle pid depth;
          emit
            {|{"name":"shed:j%d","cat":"serve","ph":"i","ts":%d,"pid":%d,"tid":0,"s":"p"}|}
            job at_cycle pid
      | Job_admitted { job; asid; wait; depth } ->
          emit
            {|{"name":"queue_depth","cat":"serve","ph":"C","ts":%d,"pid":%d,"args":{"depth":%d}}|}
            at_cycle pid depth;
          emit
            {|{"name":"admit:j%d(+%d)","cat":"serve","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            job wait at_cycle pid asid
      | Asid_evicted { asid; entries; cold } ->
          emit
            {|{"name":"%s(%d)","cat":"serve","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            (if cold then "evict_cold" else "evict_recycle")
            entries at_cycle pid asid
      | Deadline_miss { job; asid; by } ->
          emit
            {|{"name":"deadline_miss:j%d(+%d)","cat":"slo","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            job by at_cycle pid asid
      | Job_retry { job; asid; attempt } ->
          emit
            {|{"name":"job_retry:j%d#%d","cat":"chaos","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            job attempt at_cycle pid asid
      | Job_failed { job; asid; attempts } ->
          emit
            {|{"name":"job_failed:j%d(%d)","cat":"chaos","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            job attempts at_cycle pid asid
      | Interp_admit { job; asid } ->
          emit
            {|{"name":"admit_interp:j%d","cat":"chaos","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            job at_cycle pid asid
      | Brownout { from_stage; to_stage } ->
          emit
            {|{"name":"brownout_stage","cat":"chaos","ph":"C","ts":%d,"pid":%d,"args":{"stage":%d}}|}
            at_cycle pid to_stage;
          emit
            {|{"name":"brownout:%d->%d","cat":"chaos","ph":"i","ts":%d,"pid":%d,"tid":0,"s":"g"}|}
            from_stage to_stage at_cycle pid
      | Slot_quarantined { asid; entries; until } ->
          emit
            {|{"name":"quarantine(%d)until:%d","cat":"chaos","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"}|}
            entries until at_cycle pid asid)
    (events t);
  (match !open_slice with
  | Some (asid, from_cycle) -> slice ~asid ~from_cycle ~to_cycle:end_cycle
  | None -> ());
  (* the ring's truncation is part of the record: a long run that pushed
     events out of the window says so in the export itself *)
  if dropped t > 0 then
    emit
      {|{"name":"ring_dropped:%d","cat":"trace","ph":"i","ts":%d,"pid":%d,"tid":0,"s":"g"}|}
      (dropped t) end_cycle pid;
  (* thread names make the about://tracing rows self-describing *)
  List.iter
    (fun (asid, _) ->
      emit
        {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
        pid asid (name asid))
    (tallies t);
  Buffer.add_string b "\n]\n";
  Buffer.contents b
