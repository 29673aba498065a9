(* Tests for fault-tolerant serving: the zero config lands on the plain
   service's pinned numbers with a quiet chaos layer, exhaustive
   outcome classification with pinned seeded counts (met-SLO / late /
   retried-then-ok / failed / shed), exact trace rollups for the new
   event kinds, a directed brownout staging run, the end-state recovery
   invariant across a seeded fault grid, and the heavy-tailed weighted
   arrival pools. *)

module Dtb = Uhm_core.Dtb
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Machine = Uhm_machine.Machine
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler
module Injector = Uhm_fault.Injector
module Resilient = Uhm_fault.Resilient
module Arrival = Uhm_serve.Arrival
module Serve = Uhm_serve.Serve
module Chaos = Uhm_serve.Chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let compile name = Suite.compile (Suite.find name)

let small_config =
  { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 16 }

let algol_templates names =
  List.map (fun n -> (n, Codec.encode Kind.Huffman (compile n))) names

let mixed_templates () =
  algol_templates [ "fact_iter"; "gcd" ]
  @ List.map
      (fun n ->
        (n, Codec.encode Kind.Huffman (Uhm_ftn.Suite.compile (Uhm_ftn.Suite.find n))))
      [ "ftn_euclid"; "ftn_fib" ]

(* -- Zero config: the plain service, and a quiet chaos layer ---------------- *)

(* Chaos.run under Chaos.zero drives the same kernel as Serve.run, so it
   must land on the plain service's pinned numbers (the goldens in
   test_serve.ml) — and the chaos layer itself must stay quiet. *)
let test_zero_identity_directed () =
  Test_serve.each_served_case
    (fun ~policy ~scheduler ~admission ~economy ~quantum ~config ~slots
         ~templates ~arrivals ->
      let r =
        Chaos.run ~scheduler ?admission ?economy ~policy ~quantum ~config
          ~fconfig:Chaos.zero ~slots ~templates ~arrivals ()
      in
      let s = r.Chaos.cv_summary in
      check_int "no failures" 0 s.Chaos.cs_failed_jobs;
      check_int "no job retries" 0 s.Chaos.cs_job_retries;
      check_int "no injections" 0 s.Chaos.cs_injected;
      check_int "no quarantines" 0 s.Chaos.cs_quarantines;
      check_int "no brownout" 0 s.Chaos.cs_brownout_transitions;
      Alcotest.(check (float 1e-9)) "attainment 1.0" 1.0 s.Chaos.cs_attainment;
      r.Chaos.cv_serve)

(* -- Tentpole: exhaustive outcome classification ---------------------------- *)

(* Guards off, psder-word faults at a bruising rate (expected dozens of
   injections per attempt), a 1 Mcycle deadline and a tiny queue at
   moderate overload: every outcome class must appear — met-SLO, late,
   retried-then-ok, failed, shed — and the seeded counts are pinned
   exactly.  The solo costs here are ~118k (fact_iter) and ~320k
   (string_out) cycles, so 2 slots give ~9 clean jobs/Mcycle against 5
   offered, and the fault-inflated service keeps the cap-4 queue
   saturated. *)
let classification_run () =
  let templates = algol_templates [ "fact_iter"; "string_out" ] in
  let arrivals =
    Arrival.generate ~seed:31 ~templates:(List.length templates) ~jobs:120
      (Arrival.Poisson { rate = 5.0 })
  in
  let fconfig =
    {
      Chaos.c_fault =
        {
          Resilient.zero with
          Resilient.injector =
            {
              Injector.seed = 1203;
              rates = [ (Injector.Psder_word, 0.004) ];
              explicit = [];
            };
        };
      c_job_retry_limit = 2;
      c_job_backoff = 2048;
      c_deadline = Some 1_000_000;
      c_brownout = None;
    }
  in
  (* the fuel bound matters: a corrupted attempt can loop, and must trap
     out rather than hold its slot for billions of cycles *)
  Chaos.run ~fuel:500_000 ~policy:Dtb.Tagged ~quantum:24 ~config:small_config
    ~fconfig
    ~admission:{ Serve.queue_capacity = 4; shed_above = None }
    ~slots:2 ~templates ~arrivals ()

let classify (r : Chaos.result) =
  let reports = Array.of_list r.Chaos.cv_reports in
  List.fold_left
    (fun (met, late, retried_ok, failed, shed) (j : Serve.job) ->
      match j.Serve.j_status with
      | Serve.Shed -> (met, late, retried_ok, failed, shed + 1)
      | Serve.Failed _ -> (met, late, retried_ok, failed + 1, shed)
      | Serve.Completed Machine.Halted ->
          let attempts = (reports.(j.Serve.j_id)).Chaos.cj_attempts in
          let within = j.Serve.j_sojourn <= 1_000_000 in
          ( (if within then met + 1 else met),
            (if within then late else late + 1),
            (if attempts > 1 then retried_ok + 1 else retried_ok),
            failed,
            shed )
      | Serve.Completed _ -> (met, late, retried_ok, failed, shed))
    (0, 0, 0, 0, 0)
    r.Chaos.cv_serve.Serve.sv_jobs

let test_outcome_classification () =
  let r = classification_run () in
  let met, late, retried_ok, failed, shed = classify r in
  (* every class is represented *)
  check_bool "some met SLO" true (met > 0);
  check_bool "some late" true (late > 0);
  check_bool "some retried then ok" true (retried_ok > 0);
  check_bool "some failed" true (failed > 0);
  check_bool "some shed" true (shed > 0);
  (* and the seeded counts are exact *)
  check_int "met" 7 met;
  check_int "late" 47 late;
  check_int "retried-then-ok" 16 retried_ok;
  check_int "failed" 12 failed;
  check_int "shed" 54 shed;
  check_int "conservation" 120 (met + late + failed + shed);
  (* the summary agrees with the classification *)
  let s = r.Chaos.cv_summary in
  check_int "summary slo met" met s.Chaos.cs_slo_met;
  check_int "summary completed" (met + late) s.Chaos.cs_slo_completed;
  check_int "summary failed" failed s.Chaos.cs_failed_jobs;
  check_int "summary deadline misses" late s.Chaos.cs_deadline_misses;
  check_bool "injections happened" true (s.Chaos.cs_injected > 0);
  check_bool "detections happened" true (s.Chaos.cs_detected > 0);
  (* no wrong answers: every accepted completion matches its solo run *)
  let reports = Array.of_list r.Chaos.cv_reports in
  List.iter
    (fun (j : Serve.job) ->
      match j.Serve.j_status with
      | Serve.Completed _ ->
          check_bool "state ok" true (reports.(j.Serve.j_id)).Chaos.cj_state_ok
      | _ -> ())
    r.Chaos.cv_serve.Serve.sv_jobs;
  (* determinism: the whole run replays bit for bit *)
  let r2 = classification_run () in
  check_bool "deterministic replay" true
    (r.Chaos.cv_serve.Serve.sv_jobs = r2.Chaos.cv_serve.Serve.sv_jobs
    && r.Chaos.cv_summary = r2.Chaos.cv_summary
    && r.Chaos.cv_reports = r2.Chaos.cv_reports)

(* -- Satellite: exact rollups for the new event kinds ----------------------- *)

let test_new_kind_rollups () =
  (* a tiny ring forces drops; the rollups must stay exact regardless *)
  let t = Trace.create ~capacity:4 () in
  let ev = Trace.record t in
  ev ~at_cycle:10 (Trace.Deadline_miss { job = 0; asid = 1; by = 50 });
  ev ~at_cycle:20 (Trace.Job_retry { job = 1; asid = 1; attempt = 2 });
  ev ~at_cycle:30 (Trace.Job_retry { job = 1; asid = 2; attempt = 3 });
  ev ~at_cycle:40 (Trace.Job_failed { job = 1; asid = 2; attempts = 3 });
  ev ~at_cycle:50 (Trace.Interp_admit { job = 2; asid = 1 });
  ev ~at_cycle:60 (Trace.Brownout { from_stage = 0; to_stage = 1 });
  ev ~at_cycle:70 (Trace.Brownout { from_stage = 1; to_stage = 2 });
  ev ~at_cycle:80 (Trace.Slot_quarantined { asid = 2; entries = 5; until = 999 });
  ev ~at_cycle:90 (Trace.Brownout { from_stage = 2; to_stage = 1 });
  let c1 = Trace.counts t 1 in
  check_int "asid1 deadline misses" 1 c1.Trace.c_deadline_misses;
  check_int "asid1 job retries" 1 c1.Trace.c_job_retries;
  check_int "asid1 interp admits" 1 c1.Trace.c_interp_admits;
  check_int "asid1 job failures" 0 c1.Trace.c_job_failures;
  let c2 = Trace.counts t 2 in
  check_int "asid2 job retries" 1 c2.Trace.c_job_retries;
  check_int "asid2 job failures" 1 c2.Trace.c_job_failures;
  check_int "asid2 quarantines" 1 c2.Trace.c_quarantines;
  check_int "brownout transitions" 3 (Trace.brownout_transitions t);
  check_int "brownout peak" 2 (Trace.brownout_peak t);
  check_int "recorded" 9 (Trace.recorded t);
  check_int "dropped" 5 (Trace.dropped t);
  (* chrome export names the new kinds *)
  let doc = Trace.to_chrome ~names:(Printf.sprintf "p%d") ~end_cycle:100 t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle -> check_bool (needle ^ " exported") true (contains needle doc))
    [ "brownout_stage"; "quarantine"; "\"chaos\"" ]

(* -- Satellite: directed brownout staging ----------------------------------- *)

(* No faults at all: the controller must still stage on queue delay
   alone.  One slot, a flood of arrivals, a hair-trigger wait bound:
   stages escalate 1 -> 2 -> 3 (interpretation admits, a quarantine),
   then hysteresis lets it recover.  Quarantine voids the in-flight
   attempt, so job-level retries fire even with a silent injector. *)
let brownout_run () =
  let templates = algol_templates [ "fact_iter" ] in
  let arrivals =
    Arrival.generate ~seed:3 ~templates:1 ~jobs:40
      (Arrival.Poisson { rate = 4000.0 })
  in
  let fconfig =
    {
      Chaos.zero with
      Chaos.c_brownout =
        Some
          {
            Chaos.bo_window = 100_000;
            bo_hi_detections = 4;
            bo_hi_wait = 60_000;
            bo_shed_above = 12;
            bo_hysteresis = 150_000;
            bo_quarantine = 80_000;
          };
    }
  in
  Chaos.run ~policy:Dtb.Tagged ~quantum:16 ~config:small_config ~fconfig
    ~admission:{ Serve.queue_capacity = 16; shed_above = None }
    ~slots:1 ~templates ~arrivals ()

let test_brownout_staging () =
  let r = brownout_run () in
  let s = r.Chaos.cv_summary in
  check_int "peak stage" 3 s.Chaos.cs_max_stage;
  check_bool "staged up and down" true (s.Chaos.cs_brownout_transitions >= 4);
  check_bool "interp admissions at stage 2" true (s.Chaos.cs_interp_admits > 0);
  (* wait-driven degradation has no detections, hence no slot scores as
     poisoned: stage 3 must not quarantine blindly *)
  check_int "no quarantine without a poisoned slot" 0 s.Chaos.cs_quarantines;
  check_int "no faults were injected" 0 s.Chaos.cs_injected;
  check_int "nothing failed" 0 s.Chaos.cs_failed_jobs;
  (* the trace telling matches the summary counters *)
  check_int "trace transitions" s.Chaos.cs_brownout_transitions
    (Trace.brownout_transitions r.Chaos.cv_serve.Serve.sv_trace);
  check_int "trace peak" 3 (Trace.brownout_peak r.Chaos.cv_serve.Serve.sv_trace);
  (* every completion is still the right answer: re-verify against the
     solo reference independently of the driver (verification is off
     with a silent injector, so this is the external check) *)
  let reports = Array.of_list r.Chaos.cv_reports in
  let sr =
    Chaos.solo_reference ~config:small_config (List.hd (algol_templates [ "fact_iter" ]))
  in
  List.iter
    (fun (j : Serve.job) ->
      match j.Serve.j_status with
      | Serve.Completed st ->
          check_bool "status" true (st = sr.Chaos.sr_status);
          check_string "output" sr.Chaos.sr_output
            (reports.(j.Serve.j_id)).Chaos.cj_output;
          check_int "arch hash" sr.Chaos.sr_arch_hash
            (reports.(j.Serve.j_id)).Chaos.cj_arch_hash
      | _ -> ())
    r.Chaos.cv_serve.Serve.sv_jobs;
  (* determinism *)
  let r2 = brownout_run () in
  check_bool "deterministic" true
    (r.Chaos.cv_serve.Serve.sv_jobs = r2.Chaos.cv_serve.Serve.sv_jobs
    && r.Chaos.cv_summary = r2.Chaos.cv_summary)

(* Detection-driven stage 3: guards on, a bruising dtb-tag fault rate,
   detections (not queue delay) drive the window.  The slot with the
   most recent detections is quarantined, its in-flight attempt voided
   into the retry path — and every completion is still the right
   answer. *)
let test_brownout_quarantine () =
  let templates = algol_templates [ "fact_iter"; "gcd" ] in
  let arrivals =
    Arrival.generate ~seed:17 ~templates:2 ~jobs:60
      (Arrival.Poisson { rate = 2000.0 })
  in
  let fconfig =
    {
      Chaos.zero with
      Chaos.c_fault =
        Resilient.protected
          {
            Injector.seed = 99;
            rates = [ (Injector.Dtb_tag, 0.01) ];
            explicit = [];
          };
      c_brownout =
        Some
          {
            Chaos.default_brownout with
            Chaos.bo_window = 300_000;
            bo_hi_detections = 3;
            bo_hi_wait = max_int;
            bo_hysteresis = 500_000;
            bo_quarantine = 100_000;
          };
    }
  in
  let r =
    Chaos.run ~policy:Dtb.Tagged ~quantum:24 ~config:small_config ~fconfig
      ~slots:2 ~templates ~arrivals ()
  in
  let s = r.Chaos.cv_summary in
  check_int "peak stage" 3 s.Chaos.cs_max_stage;
  check_bool "a quarantine fired" true (s.Chaos.cs_quarantines >= 1);
  check_bool "detections drove the window" true (s.Chaos.cs_detected > 0);
  check_bool "quarantine voided an attempt" true (s.Chaos.cs_job_retries >= 1);
  let reports = Array.of_list r.Chaos.cv_reports in
  List.iter
    (fun (j : Serve.job) ->
      match j.Serve.j_status with
      | Serve.Completed _ ->
          check_bool "state ok" true (reports.(j.Serve.j_id)).Chaos.cj_state_ok
      | _ -> ())
    r.Chaos.cv_serve.Serve.sv_jobs

(* Regression: a stage-3 quarantine on the ONLY slot voids the active
   attempt into a retry whose backoff (64 cycles) expires long before
   the quarantine (400k cycles) does.  With every slot quarantined and
   the retry already due, the idle loop must jump the clock to the
   quarantine expiry rather than spin on the stale retry time — the
   pre-fix version of this scenario livelocked, so mere termination is
   the property under test. *)
let test_quarantine_single_slot_no_livelock () =
  let templates = algol_templates [ "fact_iter"; "gcd" ] in
  let arrivals =
    Arrival.generate ~seed:17 ~templates:2 ~jobs:30
      (Arrival.Poisson { rate = 2000.0 })
  in
  let fconfig =
    {
      Chaos.zero with
      Chaos.c_fault =
        Resilient.protected
          {
            Injector.seed = 99;
            rates = [ (Injector.Dtb_tag, 0.03) ];
            explicit = [];
          };
      c_job_backoff = 64;
      c_brownout =
        Some
          {
            Chaos.default_brownout with
            Chaos.bo_window = 300_000;
            bo_hi_detections = 3;
            bo_hi_wait = max_int;
            bo_hysteresis = 500_000;
            bo_quarantine = 400_000;
          };
    }
  in
  let r =
    Chaos.run ~policy:Dtb.Tagged ~quantum:24 ~config:small_config ~fconfig
      ~slots:1 ~templates ~arrivals ()
  in
  let s = r.Chaos.cv_summary in
  check_bool "a quarantine fired" true (s.Chaos.cs_quarantines >= 1);
  check_bool "the voided attempt retried" true (s.Chaos.cs_job_retries >= 1);
  check_int "all jobs retired (the run terminated)" 30
    (List.length r.Chaos.cv_serve.Serve.sv_jobs)

(* -- Satellite: the recovery invariant across a seeded fault grid ----------- *)

(* Guards and checkpoints on: at every grid point, every job that
   retired [Completed] must have final state equal to its fault-free
   solo run — the service never reports a corrupted answer. *)
let test_end_state_invariant_grid () =
  let templates = mixed_templates () in
  let refs =
    List.map (fun t -> Chaos.solo_reference ~config:small_config t) templates
  in
  let ref_arr = Array.of_list refs in
  List.iter
    (fun (policy, fr, seed) ->
      let arrivals =
        Arrival.generate ~seed ~templates:(List.length templates) ~jobs:40
          (Arrival.Poisson { rate = 1200.0 })
      in
      let injector =
        {
          Injector.seed = seed * 7919;
          rates = List.map (fun c -> (c, fr /. 4.)) Injector.all_classes;
          explicit = [];
        }
      in
      let fconfig =
        {
          Chaos.zero with
          Chaos.c_fault = Resilient.protected ~checkpoint_every:1024 injector;
          c_deadline = Some 2_000_000;
        }
      in
      let r =
        Chaos.run ~policy ~quantum:24 ~config:small_config ~fconfig ~slots:3
          ~templates ~arrivals ()
      in
      let reports = Array.of_list r.Chaos.cv_reports in
      List.iter
        (fun (j : Serve.job) ->
          match j.Serve.j_status with
          | Serve.Completed st ->
              let rep = reports.(j.Serve.j_id) in
              let sr = ref_arr.(j.Serve.j_template) in
              check_bool "driver verified" true rep.Chaos.cj_state_ok;
              check_bool "status = solo" true (st = sr.Chaos.sr_status);
              check_string "output = solo" sr.Chaos.sr_output rep.Chaos.cj_output;
              check_int "arch hash = solo" sr.Chaos.sr_arch_hash
                rep.Chaos.cj_arch_hash
          | Serve.Failed _ | Serve.Shed -> ())
        r.Chaos.cv_serve.Serve.sv_jobs)
    [
      (Dtb.Tagged, 0.002, 11);
      (Dtb.Tagged, 0.008, 12);
      (Dtb.Flush_on_switch, 0.004, 13);
      (Dtb.Partitioned, 0.004, 14);
    ]

(* -- Satellite: heavy-tailed weighted template pools ------------------------ *)

let test_weighted_pools () =
  (* weighting must not perturb arrival times, only template picks *)
  let uniform =
    Arrival.generate ~seed:7 ~templates:5 ~jobs:2000
      (Arrival.Poisson { rate = 2000.0 })
  in
  let weights = Arrival.heavy_tailed ~templates:5 ~heavy:[ (4, 0.125) ] in
  let skewed =
    Arrival.generate ~weights ~seed:7 ~templates:5 ~jobs:2000
      (Arrival.Poisson { rate = 2000.0 })
  in
  List.iter2
    (fun (u : Arrival.arrival) (s : Arrival.arrival) ->
      check_int "same arrival time" u.Arrival.at s.Arrival.at)
    uniform skewed;
  (* pinned seeded histogram: template 4 (weight 1/8) is rare *)
  let hist = Array.make 5 0 in
  List.iter (fun (a : Arrival.arrival) -> hist.(a.Arrival.template) <- hist.(a.Arrival.template) + 1) skewed;
  Alcotest.(check (array int)) "pinned histogram" [| 465; 472; 482; 511; 70 |] hist;
  (* the helper fills in unit weights *)
  Alcotest.(check (list (float 1e-9)))
    "heavy_tailed vector" [ 1.; 1.; 1.; 1.; 0.125 ] weights;
  check_string "uniform fingerprint" "uniform" (Arrival.weights_name None);
  check_bool "weighted fingerprint is exact" true
    (Arrival.weights_name (Some weights) <> "uniform");
  (* validation *)
  (match
     Arrival.generate ~weights:[ 1.; 2. ] ~seed:1 ~templates:3 ~jobs:1
       (Arrival.Poisson { rate = 100.0 })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong arity must raise");
  match
    Arrival.generate ~weights:[ 0.; 0. ] ~seed:1 ~templates:2 ~jobs:1
      (Arrival.Poisson { rate = 100.0 })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-zero weights must raise"

let suite =
  ( "chaos",
    [
      Alcotest.test_case "zero-config identity (directed)" `Quick
        test_zero_identity_directed;
      Alcotest.test_case "outcome classification (pinned)" `Quick
        test_outcome_classification;
      Alcotest.test_case "new trace kinds roll up exactly" `Quick
        test_new_kind_rollups;
      Alcotest.test_case "brownout staging (directed)" `Quick
        test_brownout_staging;
      Alcotest.test_case "brownout quarantine (detection-driven)" `Quick
        test_brownout_quarantine;
      Alcotest.test_case "single-slot quarantine terminates (livelock pin)"
        `Quick test_quarantine_single_slot_no_livelock;
      Alcotest.test_case "end-state invariant across fault grid" `Quick
        test_end_state_invariant_grid;
      Alcotest.test_case "heavy-tailed weighted pools" `Quick
        test_weighted_pools;
    ] )
