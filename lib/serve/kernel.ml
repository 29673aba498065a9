(* The one open-arrival slicing kernel behind Serve.run and Chaos.run.

   Jobs arrive over virtual time, wait in a bounded admission queue, are
   bound to recycled ASID slots sharing one DTB, and are sliced at INTERP
   boundaries until they retire.  Every attempt is a Uhm_fault.Tenant —
   the per-program engine that Resilient.run_encoded slices too, carrying
   injection, guards, invalidate-retranslate, checkpoint rollback and
   watchdog downgrade — and the service runs its robustness policy
   around it: job deadlines, bounded retry with exponential backoff after
   a voided attempt, and a staged brownout controller.

   Serve.run is this kernel at [zero]; Chaos.run is this kernel plus the
   fold of its per-job state into reports and a chaos summary.  The
   zero-config identity between the two therefore holds by construction.
   Under [zero] no fault can fire, verification stays disarmed and
   neither deadlines nor brownout exist, so every chaos branch below is
   dead and the run is the plain service.

   The slice shares the closed-mix driver's (Resilient.run_encoded's)
   pick order (Scheduler.pick), context switch (Scheduler.switch) and
   clock arithmetic.  That is not incidental: in the closed-system limit
   — all arrivals at cycle 0, as many slots as jobs — a zero-config run
   must reproduce Resilient.run_encoded's cycle counts and trace rollups
   at Resilient.zero bit for bit, which test/test_serve.ml pins.  The
   kernel runs no solo simulation of its own: a job's slowdown
   denominator and the reference its answer is verified against are the
   one Resilient.solo run of its template, cached on its encoding. *)

module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module Dtb = Uhm_core.Dtb
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace
module Injector = Uhm_fault.Injector
module Resilient = Uhm_fault.Resilient
module Tenant = Uhm_fault.Tenant

(* -- The service's records (documented in serve.mli) ------------------------ *)

type admission = { queue_capacity : int; shed_above : int option }

let default_admission = { queue_capacity = 64; shed_above = None }

type economy = { evict_min_idle : int; evict_watermark : float }

let default_economy = { evict_min_idle = 256; evict_watermark = 0.75 }

type job_status = Completed of Machine.status | Shed | Failed of int

type job = {
  j_id : int;
  j_template : int;
  j_name : string;
  j_arrival : int;
  j_admit : int;
  j_finish : int;
  j_asid : int;
  j_cycles : int;
  j_queue_delay : int;
  j_sojourn : int;
  j_solo_cycles : int;
  j_slowdown : float;
  j_status : job_status;
}

type summary = {
  s_jobs : int;
  s_completed : int;
  s_failed : int;
  s_shed : int;
  s_total_cycles : int;
  s_throughput : float;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
  s_qd_p50 : int;
  s_qd_p95 : int;
  s_qd_p99 : int;
  s_mean_slowdown : float;
  s_max_depth : int;
  s_evictions : int;
  s_cold_evictions : int;
  s_switches : int;
  s_flushes : int;
  s_hit_ratio : float;
}

type result = {
  sv_policy : Dtb.policy;
  sv_scheduler : Scheduler.policy;
  sv_quantum : int;
  sv_config : Dtb.config;
  sv_slots : int;
  sv_jobs : job list;
  sv_summary : summary;
  sv_trace : Trace.t;
}

let summarize ~njobs ~total_cycles ~max_depth ~evictions ~cold_evictions
    ~switches ~flushes ~hit_ratio job_list =
  let retired =
    List.filter
      (fun j ->
        match j.j_status with
        | Completed _ | Failed _ -> true
        | Shed -> false)
      job_list
  in
  let completed =
    List.length
      (List.filter (fun j -> j.j_status = Completed Machine.Halted) retired)
  in
  let shed = List.length job_list - List.length retired in
  let p50, p95, p99 =
    Percentile.summary (List.map (fun j -> j.j_sojourn) retired)
  in
  let qd_p50, qd_p95, qd_p99 =
    Percentile.summary (List.map (fun j -> j.j_queue_delay) retired)
  in
  let mean_slowdown =
    match retired with
    | [] -> 0.
    | _ ->
        List.fold_left (fun a j -> a +. j.j_slowdown) 0. retired
        /. float_of_int (List.length retired)
  in
  {
    s_jobs = njobs;
    s_completed = completed;
    s_failed = List.length retired - completed;
    s_shed = shed;
    s_total_cycles = total_cycles;
    s_throughput =
      (if total_cycles = 0 then 0.
       else float_of_int completed /. float_of_int total_cycles *. 1e6);
    s_p50 = p50;
    s_p95 = p95;
    s_p99 = p99;
    s_qd_p50 = qd_p50;
    s_qd_p95 = qd_p95;
    s_qd_p99 = qd_p99;
    s_mean_slowdown = mean_slowdown;
    s_max_depth = max_depth;
    s_evictions = evictions;
    s_cold_evictions = cold_evictions;
    s_switches = switches;
    s_flushes = flushes;
    s_hit_ratio = hit_ratio;
  }

(* SLO attainment: the exact deadline metric over a finished job list.
   Only jobs that completed with a clean halt can meet the bound; shed
   and failed jobs count against attainment's denominator only through
   their absence from it (they are reported separately). *)
let slo ~bound jobs =
  let completed =
    List.filter (fun j -> j.j_status = Completed Machine.Halted) jobs
  in
  let met = List.filter (fun j -> j.j_sojourn <= bound) completed in
  let n_completed = List.length completed and n_met = List.length met in
  ( n_met,
    n_completed,
    if n_completed = 0 then 0.
    else float_of_int n_met /. float_of_int n_completed )

(* -- The fault and robustness policy (documented in chaos.mli) -------------- *)

type brownout = {
  bo_window : int;
  bo_hi_detections : int;
  bo_hi_wait : int;
  bo_shed_above : int;
  bo_hysteresis : int;
  bo_quarantine : int;
}

let default_brownout =
  {
    bo_window = 200_000;
    bo_hi_detections = 8;
    bo_hi_wait = 400_000;
    bo_shed_above = 4;
    bo_hysteresis = 100_000;
    bo_quarantine = 250_000;
  }

type config = {
  c_fault : Resilient.config;
  c_job_retry_limit : int;
  c_job_backoff : int;
  c_deadline : int option;
  c_brownout : brownout option;
}

let zero =
  {
    c_fault = Resilient.zero;
    c_job_retry_limit = 2;
    c_job_backoff = 4096;
    c_deadline = None;
    c_brownout = None;
  }

(* -- The kernel -------------------------------------------------------------- *)

(* Per-job bookkeeping that survives across attempts. *)
type jstate = {
  js_id : int;
  js_template : int;
  js_name : string;
  js_encoded : Codec.encoded;
  js_arrival : int;
  mutable js_attempts : int;
  mutable js_first_admit : int;
  mutable js_cycles : int;
  mutable js_injected : int;
  mutable js_detected : int;
  mutable js_retries : int;
  mutable js_rollbacks : int;
  mutable js_downgraded : bool;
  mutable js_interp_admit : bool;
  mutable js_output : string;
  mutable js_arch_hash : int;
  mutable js_state_ok : bool;
}

(* One attempt of one job bound to an ASID slot: the Tenant engine's
   program and the job it serves. *)
type tenant = { t_js : jstate; t : Tenant.t }

(* A finished run: the service-level result plus the per-job state and
   policy counters that Chaos.run folds into its reports. *)
type outcome = {
  k_result : result;
  k_jobs : jstate array;
  k_job_retries : int;
  k_interp_admits : int;
  k_quarantines : int;
  k_deadline_misses : int;
}

let run ?(timing = Timing.paper) ?fuel ?(layout = Layout.default) ?backend
    ?(trace_capacity = 65536) ?(scheduler = Scheduler.Round_robin)
    ?(admission = default_admission) ?economy ~policy ~quantum ~config
    ~fconfig ~slots ~templates ~arrivals () =
  if templates = [] then invalid_arg "Serve.run: no templates";
  if quantum < 1 then invalid_arg "Serve.run: quantum must be >= 1";
  if slots < 1 then invalid_arg "Serve.run: slots must be >= 1";
  if admission.queue_capacity < 1 then
    invalid_arg "Serve.run: queue capacity must be >= 1";
  if fconfig.c_job_retry_limit < 0 then
    invalid_arg "Chaos.run: job retry limit must be >= 0";
  if fconfig.c_job_backoff < 0 then
    invalid_arg "Chaos.run: job backoff must be >= 0";
  (match fconfig.c_deadline with
  | Some d when d < 1 -> invalid_arg "Chaos.run: deadline must be >= 1"
  | _ -> ());
  let fc = fconfig.c_fault in
  if Injector.can_inject fc.Tenant.injector Injector.Mem_word
     && fc.Tenant.checkpoint_every = None
  then invalid_arg "Chaos.run: Mem_word faults require checkpoint_every";
  let tmpl = Array.of_list templates in
  let arr = Array.of_list arrivals in
  let njobs = Array.length arr in
  Array.iteri
    (fun i (a : Arrival.arrival) ->
      if a.Arrival.template < 0 || a.Arrival.template >= Array.length tmpl
      then invalid_arg "Serve.run: template index out of range";
      if i > 0 && a.Arrival.at < arr.(i - 1).Arrival.at then
        invalid_arg "Serve.run: arrivals out of order")
    arr;
  let buffer_base = layout.Layout.dtb_buffer_base + 1 in
  let dtb = Dtb.create_shared ~policy ~programs:slots config ~buffer_base in
  let trace = Trace.create ~capacity:trace_capacity () in
  let tell at kind = Trace.record trace ~at_cycle:at kind in
  let jobs : job option array = Array.make njobs None in
  let jstates =
    Array.mapi
      (fun i (a : Arrival.arrival) ->
        let name, encoded = tmpl.(a.Arrival.template) in
        {
          js_id = i;
          js_template = a.Arrival.template;
          js_name = name;
          js_encoded = encoded;
          js_arrival = a.Arrival.at;
          js_attempts = 0;
          js_first_admit = -1;
          js_cycles = 0;
          js_injected = 0;
          js_detected = 0;
          js_retries = 0;
          js_rollbacks = 0;
          js_downgraded = false;
          js_interp_admit = false;
          js_output = "";
          js_arch_hash = 0;
          js_state_ok = true;
        })
      arr
  in
  let queue : int Queue.t = Queue.create () in
  let active : tenant option array = Array.make slots None in
  let used = Array.make slots false in
  let next = ref 0 in
  let clock = ref 0 in
  let switches = ref 0 in
  let flushes0 = Dtb.flushes dtb in
  let last_index = ref (-1) in
  let max_depth = ref 0 in
  let evictions = ref 0 in
  let cold_evictions = ref 0 in
  (* ASID-qualified keys exist exactly when several slots share the tag
     array; with one slot (or Flush_on_switch) keys are raw DIR addrs *)
  let tagged_keys = policy <> Dtb.Flush_on_switch && slots > 1 in
  (* chaos-policy state *)
  let pending_retries : (int * int) list ref = ref [] in
  let insert_retry at id =
    let rec ins = function
      | [] -> [ (at, id) ]
      | (a, j) :: rest when (a, j) <= (at, id) -> (a, j) :: ins rest
      | rest -> (at, id) :: rest
    in
    pending_retries := ins !pending_retries
  in
  let stage = ref 0 in
  let bo_window : (int * int) Queue.t = Queue.create () in
  let calm_since = ref (-1) in
  let quarantined_until = Array.make slots 0 in
  let job_retries_n = ref 0 in
  let interp_admits_n = ref 0 in
  let quarantines_n = ref 0 in
  let deadline_misses_n = ref 0 in
  let bo_note at slot =
    match fconfig.c_brownout with
    | None -> ()
    | Some _ -> Queue.push (at, slot) bo_window
  in
  let env =
    Tenant.env ~timing ?fuel ~layout ?backend ~dtb ~trace ~tagged_keys
      ~on_detect:bo_note fc
  in
  (* end-state verification (and thus job retry) only arms when faults
     can actually fire: the zero-config run must be branch-for-branch the
     plain service *)
  let verify = Tenant.armed env in
  let solo (js : jstate) =
    Resilient.solo ~timing ?fuel ~layout ?backend ~config js.js_encoded
  in

  (* Pull every arrival the virtual clock has reached into the admission
     queue, shedding per the admission-control config (and harder while
     brownout is at stage 1+).  Event timestamps are the arrival cycles:
     that is when the queue actually changed. *)
  let ingest () =
    while !next < njobs && arr.(!next).Arrival.at <= !clock do
      let id = !next in
      let a = arr.(id) in
      let depth = Queue.length queue in
      let shed =
        depth >= admission.queue_capacity
        || (match admission.shed_above with
           | Some threshold -> depth >= threshold
           | None -> false)
        ||
        match fconfig.c_brownout with
        | Some b when !stage >= 1 -> depth >= b.bo_shed_above
        | _ -> false
      in
      if shed then begin
        tell a.Arrival.at (Trace.Job_shed { job = id; depth });
        let name, _ = tmpl.(a.Arrival.template) in
        jobs.(id) <-
          Some
            {
              j_id = id;
              j_template = a.Arrival.template;
              j_name = name;
              j_arrival = a.Arrival.at;
              j_admit = -1;
              j_finish = -1;
              j_asid = -1;
              j_cycles = 0;
              j_queue_delay = 0;
              j_sojourn = 0;
              j_solo_cycles = 0;
              j_slowdown = 0.;
              j_status = Shed;
            }
      end
      else begin
        Queue.push id queue;
        let depth = depth + 1 in
        if depth > !max_depth then max_depth := depth;
        tell a.Arrival.at (Trace.Job_queued { job = id; depth })
      end;
      incr next
    done
  in

  (* Drop a slot's translations, counting an eviction if any went.  With
     ASID-qualified keys a targeted invalidation suffices; with raw keys
     the slot's entries only survive while it is still current (no
     flushing switch intervened), and a whole-buffer flush is the only
     tool. *)
  let drop_slot s =
    let entries =
      if tagged_keys then Dtb.invalidate_asid dtb ~asid:s
      else if Dtb.current_asid dtb = s && Dtb.resident_entries dtb > 0
      then begin
        let e = Dtb.resident_entries dtb in
        Dtb.flush dtb;
        e
      end
      else 0
    in
    if entries > 0 then incr evictions;
    entries
  in

  (* Recycling hygiene: a slot's previous tenant must not leak
     translations to the next one. *)
  let scrub_slot s =
    if used.(s) then begin
      let entries = drop_slot s in
      if entries > 0 then
        tell !clock (Trace.Asid_evicted { asid = s; entries; cold = false })
    end
  in

  let free_slot () =
    let rec scan s =
      if s = slots then None
      else if active.(s) = None && quarantined_until.(s) <= !clock then Some s
      else scan (s + 1)
    in
    scan 0
  in

  (* One attempt's machinery, with the slot as the trace/DTB ASID and the
     injector stream derived from (job, attempt).  A re-run is a fresh
     machine with a monotonic step counter starting at 0, so it must be a
     fresh stream — and deriving per attempt also means a retry does not
     deterministically re-suffer the exact fault schedule that voided the
     previous attempt. *)
  let make_tenant ~slot ~interp0 (js : jstate) ~attempt =
    {
      t_js = js;
      t =
        Tenant.create env ~asid:slot
          ~stream:((js.js_id * 131) + (attempt - 1))
          ~interp0 js.js_encoded;
    }
  in

  (* Fold one finished (or voided) attempt's machinery stats into the
     job's cross-attempt accumulators. *)
  let absorb { t_js = js; t } =
    js.js_cycles <- js.js_cycles + Tenant.cycles t;
    js.js_injected <- js.js_injected + t.Tenant.injected;
    js.js_detected <- js.js_detected + t.Tenant.detected;
    js.js_retries <- js.js_retries + t.Tenant.retried;
    js.js_rollbacks <- js.js_rollbacks + t.Tenant.rolled_back;
    if t.Tenant.mode = Tenant.Downgraded && not t.Tenant.interp0 then
      js.js_downgraded <- true
  in

  (* The job record of a retired job, completed or failed, against the
     template's solo run. *)
  let finish s (js : jstate) status =
    let solo = (solo js).Resilient.sr_cycles in
    let sojourn = !clock - js.js_arrival in
    jobs.(js.js_id) <-
      Some
        {
          j_id = js.js_id;
          j_template = js.js_template;
          j_name = js.js_name;
          j_arrival = js.js_arrival;
          j_admit = js.js_first_admit;
          j_finish = !clock;
          j_asid = s;
          j_cycles = js.js_cycles;
          j_queue_delay = js.js_first_admit - js.js_arrival;
          j_sojourn = sojourn;
          j_solo_cycles = solo;
          j_slowdown = Resilient.slowdown ~cycles:sojourn ~solo;
          j_status = status;
        };
    sojourn
  in

  (* A voided attempt: the job's answer cannot be trusted (end-state
     mismatch) or its slot was quarantined out from under it.  Charge the
     per-job retry budget and either schedule the re-run after an
     exponential backoff or fail the job for good — the distinct [Failed]
     outcome, never a wrong answer. *)
  let void_attempt s a =
    absorb a;
    let js = a.t_js in
    if js.js_attempts > fconfig.c_job_retry_limit then begin
      tell !clock
        (Trace.Job_failed { job = js.js_id; asid = s; attempts = js.js_attempts });
      ignore (finish s js (Failed js.js_attempts))
    end
    else begin
      incr job_retries_n;
      let delay =
        fconfig.c_job_backoff * (1 lsl min (js.js_attempts - 1) 6)
      in
      tell !clock
        (Trace.Job_retry
           { job = js.js_id; asid = s; attempt = js.js_attempts + 1 });
      insert_retry (!clock + delay) js.js_id
    end;
    Machine.recycle a.t.Tenant.machine;
    active.(s) <- None
  in

  let retire s a status =
    let js = a.t_js in
    let output, hash, intact = Tenant.end_state env a.t in
    js.js_output <- output;
    js.js_arch_hash <- hash;
    let ok =
      intact
      && ((not verify)
         ||
         let sr = solo js in
         status = sr.Resilient.sr_status
         && String.equal output sr.Resilient.sr_output
         && hash = sr.Resilient.sr_arch_hash)
    in
    js.js_state_ok <- ok;
    if ok then begin
      absorb a;
      let sojourn = finish s js (Completed status) in
      (match fconfig.c_deadline with
      | Some bound when status = Machine.Halted && sojourn > bound ->
          incr deadline_misses_n;
          tell !clock
            (Trace.Deadline_miss { job = js.js_id; asid = s; by = sojourn - bound })
      | _ -> ());
      Machine.recycle a.t.Tenant.machine;
      active.(s) <- None
    end
    else begin
      (* the attempt ran to completion but its end state is not the
         fault-free answer: a service-level detection, distinct from the
         machinery's per-class detections *)
      js.js_detected <- js.js_detected + 1;
      tell !clock (Trace.Fault_detected { asid = s; fclass = "end-state" });
      bo_note !clock s;
      void_attempt s a
    end
  in

  let admit_to s id =
    let js = jstates.(id) in
    scrub_slot s;
    js.js_attempts <- js.js_attempts + 1;
    if js.js_first_admit < 0 then js.js_first_admit <- !clock;
    let interp0 =
      match fconfig.c_brownout with Some _ -> !stage >= 2 | None -> false
    in
    let t = make_tenant ~slot:s ~interp0 js ~attempt:js.js_attempts in
    active.(s) <- Some t;
    used.(s) <- true;
    tell !clock
      (Trace.Job_admitted
         { job = id; asid = s; wait = !clock - js.js_arrival;
           depth = Queue.length queue });
    if interp0 then begin
      js.js_interp_admit <- true;
      incr interp_admits_n;
      tell !clock (Trace.Interp_admit { job = id; asid = s })
    end
  in

  let admit () =
    let continue = ref true in
    while !continue do
      (* a job whose backoff has expired re-enters ahead of fresh
         arrivals: it has already waited at least one service attempt *)
      let retry_ready =
        match !pending_retries with
        | (at, _) :: _ when at <= !clock -> true
        | _ -> false
      in
      match (retry_ready, Queue.is_empty queue, free_slot ()) with
      | true, _, Some s ->
          let id = snd (List.hd !pending_retries) in
          pending_retries := List.tl !pending_retries;
          admit_to s id
      | false, false, Some s ->
          let id = Queue.pop queue in
          admit_to s id
      | _ -> continue := false
    done
  in

  (* The cold-ASID economy: while the directory is crowded, invalidate
     the idlest sufficiently-idle slot (largest footprint breaks ties) to
     hand its capacity to the tenants actually translating. *)
  let evict_cold () =
    match economy with
    | None -> ()
    | Some _ when not tagged_keys -> ()
    | Some e ->
        let tag_capacity = config.Dtb.sets * config.Dtb.assoc in
        let crowded () =
          float_of_int (Dtb.resident_entries dtb)
          >= e.evict_watermark *. float_of_int tag_capacity
        in
        let continue = ref true in
        while !continue && crowded () do
          let now = Dtb.use_clock dtb in
          let best = ref None in
          for s = 0 to slots - 1 do
            let idle = now - Dtb.asid_last_use dtb ~asid:s in
            if idle >= e.evict_min_idle then begin
              let footprint = Dtb.asid_footprint dtb ~asid:s in
              if footprint > 0 then
                match !best with
                | Some (_, bi, bf) when bi > idle || (bi = idle && bf >= footprint)
                  ->
                    ()
                | _ -> best := Some (s, idle, footprint)
            end
          done;
          match !best with
          | None -> continue := false
          | Some (s, _, _) ->
              let entries = Dtb.invalidate_asid dtb ~asid:s in
              incr evictions;
              incr cold_evictions;
              tell !clock (Trace.Asid_evicted { asid = s; entries; cold = true })
        done
  in

  (* Brownout stage 3: take the slot with the most recent detections out
     of service.  Its current attempt (if any) is voided into the retry
     path, its resident translations are flushed, and the slot sits out
     [bo_quarantine] cycles. *)
  let quarantine_poisoned (b : brownout) =
    let per_slot = Array.make slots 0 in
    Queue.iter
      (fun (_, s) ->
        if s >= 0 && s < slots then per_slot.(s) <- per_slot.(s) + 1)
      bo_window;
    let best = ref (-1) and bestc = ref 0 in
    for s = 0 to slots - 1 do
      if per_slot.(s) > !bestc && quarantined_until.(s) <= !clock then begin
        best := s;
        bestc := per_slot.(s)
      end
    done;
    if !best >= 0 then begin
      let s = !best in
      (match active.(s) with Some t -> void_attempt s t | None -> ());
      let entries = drop_slot s in
      quarantined_until.(s) <- !clock + b.bo_quarantine;
      incr quarantines_n;
      tell !clock
        (Trace.Slot_quarantined { asid = s; entries; until = quarantined_until.(s) })
    end
  in

  (* The controller: watch guard-failure rate over a sliding cycle window
     and head-of-queue delay; escalate a stage at a time while either is
     hot, de-escalate only after both have been calm for a full
     hysteresis period (and re-arm the period per stage shed). *)
  let brownout_tick () =
    match fconfig.c_brownout with
    | None -> ()
    | Some b ->
        while
          (not (Queue.is_empty bo_window))
          && fst (Queue.peek bo_window) < !clock - b.bo_window
        do
          ignore (Queue.pop bo_window)
        done;
        let detections = Queue.length bo_window in
        let head_wait =
          match Queue.peek_opt queue with
          | Some id -> !clock - arr.(id).Arrival.at
          | None -> 0
        in
        let hot =
          detections >= b.bo_hi_detections || head_wait >= b.bo_hi_wait
        in
        if hot then begin
          calm_since := -1;
          if !stage < 3 then begin
            let from_stage = !stage in
            stage := !stage + 1;
            tell !clock (Trace.Brownout { from_stage; to_stage = !stage });
            if !stage = 3 then quarantine_poisoned b
          end
        end
        else if !calm_since < 0 then calm_since := !clock
        else if !clock - !calm_since >= b.bo_hysteresis && !stage > 0 then begin
          let from_stage = !stage in
          stage := !stage - 1;
          tell !clock (Trace.Brownout { from_stage; to_stage = !stage });
          calm_since := !clock
        end
  in

  let remaining i =
    match active.(i) with Some a -> Tenant.remaining a.t | None -> None
  in

  let slice i =
    let a = match active.(i) with Some a -> a | None -> assert false in
    if i <> !last_index then begin
      let from_asid = if !last_index < 0 then None else Some !last_index in
      Scheduler.switch ~trace dtb ~at:!clock ~from_asid ~to_asid:i;
      incr switches
    end;
    last_index := i;
    clock := !clock + Tenant.slice env a.t ~clock:!clock ~quantum;
    match a.t.Tenant.finished with
    | Some status ->
        tell !clock
          (Trace.Completion { asid = i; ok = status = Machine.Halted });
        retire i a status
    | None -> tell !clock (Trace.Quantum_expiry { asid = i })
  in

  let running = ref true in
  while !running do
    ingest ();
    brownout_tick ();
    admit ();
    evict_cold ();
    match
      Scheduler.pick ~policy:scheduler ~slots ~last:!last_index ~remaining
    with
    | Some i -> slice i
    | None -> (
        (* nothing resident: jump the clock to the next event that can
           make progress — an arrival, a retry coming off backoff, or a
           quarantined slot coming back while work is waiting *)
        let candidates =
          (if !next < njobs then [ arr.(!next).Arrival.at ] else [])
          (* a retry already due that [admit] could not place (every
             slot quarantined) must not pin the clock in place — the
             quarantine expiries below are the real jump target, and
             when a due retry is unplaceable all slots are quarantined
             past the clock, so that list is never empty *)
          @ (match !pending_retries with
            | (at, _) :: _ when at > !clock -> [ at ]
            | _ -> [])
          @
          if Queue.is_empty queue && !pending_retries = [] then []
          else
            Array.to_list quarantined_until
            |> List.filter (fun u -> u > !clock)
        in
        match candidates with
        | [] -> running := false
        | l -> clock := max !clock (List.fold_left min max_int l))
  done;

  let job_list =
    Array.to_list jobs
    |> List.map (function Some j -> j | None -> assert false)
  in
  let summary =
    summarize ~njobs ~total_cycles:!clock ~max_depth:!max_depth
      ~evictions:!evictions ~cold_evictions:!cold_evictions
      ~switches:!switches
      ~flushes:(Dtb.flushes dtb - flushes0)
      ~hit_ratio:(Dtb.hit_ratio dtb) job_list
  in
  {
    k_result =
      {
        sv_policy = policy;
        sv_scheduler = scheduler;
        sv_quantum = quantum;
        sv_config = config;
        sv_slots = slots;
        sv_jobs = job_list;
        sv_summary = summary;
        sv_trace = trace;
      };
    k_jobs = jstates;
    k_job_retries = !job_retries_n;
    k_interp_admits = !interp_admits_n;
    k_quarantines = !quarantines_n;
    k_deadline_misses = !deadline_misses_n;
  }
