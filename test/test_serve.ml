(* Tests for the open-arrival translation service: the Prng extraction
   goldens, the exact nearest-rank percentile estimator against a sort
   oracle, seeded arrival-process statistics, the closed-system limit
   that pins the serve driver to the closed mix's cycle counts and trace
   rollups bit for bit, literal goldens for the open service's numbers,
   determinism of large seeded runs and of the serving grid at any
   domain count, the grid's failed-cell rule,
   admission-queue behaviour, the eviction economy, and the dropped-
   event surfacing in Chrome exports. *)

module Prng = Uhm_core.Prng
module Dtb = Uhm_core.Dtb
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Machine = Uhm_machine.Machine
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler
module Resilient = Uhm_fault.Resilient
module Arrival = Uhm_serve.Arrival
module Percentile = Uhm_serve.Percentile
module Serve = Uhm_serve.Serve
module Experiment = Uhm_serve.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let compile name = Suite.compile (Suite.find name)

let small_config =
  { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 16 }

(* -- Satellite: the SplitMix64 extraction ----------------------------------- *)

(* Golden draws: the extracted Uhm_core.Prng must produce the exact
   sequence the in-module Injector generator produced before the move
   (byte compatibility of every fault campaign and arrival stream). *)
let test_prng_golden () =
  let r = Prng.create ~seed:1 ~stream:0 in
  Alcotest.(check (list int64))
    "seed 1 stream 0"
    [ 6791897765849424158L; -1041056189838986770L; 834844254806117752L ]
    (let a = Prng.next_i64 r in
     let b = Prng.next_i64 r in
     let c = Prng.next_i64 r in
     [ a; b; c ]);
  let r = Prng.create ~seed:42 ~stream:3 in
  check_int "seed 42 stream 3 int 1" 919073589568351552 (Prng.next_int r);
  check_int "seed 42 stream 3 int 2" 2214465675949610422 (Prng.next_int r);
  (* non-negative 62-bit ints and [0,1) floats, always *)
  let r = Prng.create ~seed:7 ~stream:11 in
  for _ = 1 to 1000 do
    let n = Prng.next_int r in
    check_bool "next_int >= 0" true (n >= 0);
    let f = Prng.next_float r in
    check_bool "next_float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_split_independent () =
  (* a split child's stream must not depend on how much the parent is
     consumed afterwards — children snapshot their own state *)
  let a = Prng.create ~seed:9 ~stream:0 in
  let b = Prng.create ~seed:9 ~stream:0 in
  let ca = Prng.split a in
  let cb = Prng.split b in
  ignore (Prng.next_i64 a);
  ignore (Prng.next_i64 a);
  for i = 1 to 16 do
    Alcotest.(check int64)
      (Printf.sprintf "split draw %d" i)
      (Prng.next_i64 cb) (Prng.next_i64 ca)
  done;
  (* distinct streams diverge *)
  let s0 = Prng.create ~seed:5 ~stream:0 in
  let s1 = Prng.create ~seed:5 ~stream:1 in
  check_bool "streams differ" true (Prng.next_i64 s0 <> Prng.next_i64 s1)

let test_prng_samplers () =
  let r = Prng.create ~seed:3 ~stream:0 in
  let n = 20000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let g = Prng.geometric r ~p:0.125 in
    check_bool "geometric >= 1" true (g >= 1);
    sum := !sum + g
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "geometric mean %.2f near 8" mean)
    true
    (mean > 7.5 && mean < 8.5);
  let sum = ref 0 in
  for _ = 1 to n do
    let e = Prng.exponential r ~rate:0.002 in
    check_bool "exponential >= 1" true (e >= 1);
    sum := !sum + e
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "exponential mean %.1f near 500" mean)
    true
    (mean > 475. && mean < 525.);
  check_int "exponential of rate 0 saturates" max_int
    (Prng.exponential r ~rate:0.)

(* -- Satellite: exact nearest-rank percentiles ------------------------------ *)

let oracle values p =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let test_percentile_edges () =
  check_int "singleton p50" 7 (Percentile.nearest_rank [| 7 |] ~p:50.);
  check_int "singleton p99" 7 (Percentile.nearest_rank [| 7 |] ~p:99.);
  check_int "p100 is max" 9 (Percentile.nearest_rank [| 3; 9; 1 |] ~p:100.);
  (* nearest rank of p50 over an even count is the lower middle *)
  check_int "even p50" 2 (Percentile.nearest_rank [| 1; 2; 3; 4 |] ~p:50.);
  check_int "ties" 5 (Percentile.nearest_rank [| 5; 5; 5; 5 |] ~p:95.);
  (match Percentile.nearest_rank [||] ~p:50. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty array must raise");
  (match Percentile.nearest_rank [| 1 |] ~p:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p = 0 must raise");
  check_bool "empty summary is zeros" true
    (Percentile.summary [] = (0, 0, 0));
  let p50, p95, p99 = Percentile.summary (List.init 100 (fun i -> i + 1)) in
  check_int "summary p50" 50 p50;
  check_int "summary p95" 95 p95;
  check_int "summary p99" 99 p99

(* -- Satellite: seeded arrival statistics ----------------------------------- *)

let test_poisson_arrivals () =
  let arr =
    Arrival.generate ~seed:7 ~templates:5 ~jobs:2000
      (Arrival.Poisson { rate = 2000.0 })
  in
  check_int "job count" 2000 (List.length arr);
  (* pinned for the fixed seed: regenerating the stream must reproduce
     it exactly (arrival times are part of every golden below) *)
  let first = List.hd arr in
  check_int "first arrival at" 76 first.Arrival.at;
  check_int "first template" 0 first.Arrival.template;
  let last = List.nth arr 1999 in
  check_int "last arrival at" 983521 last.Arrival.at;
  (* rate 2000 per Mcycle: mean gap near 500 *)
  let mean = float_of_int last.Arrival.at /. 2000. in
  check_bool
    (Printf.sprintf "empirical mean gap %.1f near 500" mean)
    true
    (mean > 450. && mean < 550.);
  (* non-decreasing times, templates in range *)
  let prev = ref 0 in
  List.iter
    (fun a ->
      check_bool "non-decreasing" true (a.Arrival.at >= !prev);
      prev := a.Arrival.at;
      check_bool "template in range" true
        (a.Arrival.template >= 0 && a.Arrival.template < 5))
    arr;
  (* determinism: same seed, same stream *)
  let again =
    Arrival.generate ~seed:7 ~templates:5 ~jobs:2000
      (Arrival.Poisson { rate = 2000.0 })
  in
  check_bool "same seed reproduces" true (arr = again);
  let other =
    Arrival.generate ~seed:8 ~templates:5 ~jobs:2000
      (Arrival.Poisson { rate = 2000.0 })
  in
  check_bool "different seed differs" true (arr <> other)

let test_burst_lengths () =
  let ls = Arrival.burst_lengths ~seed:7 ~bursts:1000 ~burst:8.0 in
  check_int "burst count" 1000 (List.length ls);
  (* the head of the distribution is pinned for the fixed seed *)
  Alcotest.(check (list int))
    "first ten lengths"
    [ 16; 16; 11; 8; 7; 6; 4; 23; 3; 5 ]
    (List.filteri (fun i _ -> i < 10) ls);
  let mean = float_of_int (List.fold_left ( + ) 0 ls) /. 1000. in
  check_bool
    (Printf.sprintf "mean burst length %.2f near 8" mean)
    true
    (mean > 7.2 && mean < 8.8);
  List.iter (fun l -> check_bool "length >= 1" true (l >= 1)) ls

let test_bursty_and_trace_arrivals () =
  let arr =
    Arrival.generate ~seed:11 ~templates:3 ~jobs:500
      (Arrival.Bursty { rate = 4000.0; burst = 8.0; idle = 5000. })
  in
  check_int "bursty count" 500 (List.length arr);
  let prev = ref 0 in
  List.iter
    (fun a ->
      check_bool "bursty non-decreasing" true (a.Arrival.at >= !prev);
      prev := a.Arrival.at)
    arr;
  check_bool "bursty deterministic" true
    (arr
    = Arrival.generate ~seed:11 ~templates:3 ~jobs:500
        (Arrival.Bursty { rate = 4000.0; burst = 8.0; idle = 5000. }));
  (* trace-driven arrivals sort, clamp and wrap *)
  let tr =
    Arrival.generate ~seed:0 ~templates:2 ~jobs:4
      (Arrival.Trace [ (50, 1); (10, -1); (30, 5); (20, 0); (99, 0) ])
  in
  Alcotest.(check (list (pair int int)))
    "trace sorted/clamped/wrapped"
    [ (10, 1); (20, 0); (30, 1); (50, 1) ]
    (List.map (fun a -> (a.Arrival.at, a.Arrival.template)) tr);
  check_string "describe poisson" "poisson(rate=2.5)"
    (Arrival.describe (Arrival.Poisson { rate = 2.5 }))

(* -- The closed-system limit pins to the closed mix ------------------------- *)

(* All arrivals at cycle 0, as many slots as jobs, no economy: the serve
   driver must reproduce the closed mix's (Resilient at the zero config)
   dispatch sequence, per-program cycle counts, DTB statistics and
   per-ASID trace rollups bit for bit, under all three sharing policies
   and both schedulers. *)
let closed_programs = [ "fact_iter"; "gcd"; "fib_rec" ]

let run_closed ~policy ~scheduler ~quantum =
  let programs = List.map (fun n -> (n, compile n)) closed_programs in
  let encodeds =
    List.map (fun (n, p) -> (n, Codec.encode Kind.Huffman p)) programs
  in
  let mix =
    Resilient.run_encoded ~scheduler ~policy ~quantum ~config:small_config
      ~fconfig:Resilient.zero encodeds
  in
  let arrivals =
    List.mapi (fun i _ -> { Arrival.at = 0; template = i }) encodeds
  in
  let served =
    Serve.run ~scheduler ~policy ~quantum ~config:small_config
      ~slots:(List.length encodeds) ~templates:encodeds ~arrivals ()
  in
  (mix, served, encodeds)

let check_closed_pin ~policy ~scheduler ~quantum =
  let name = Printf.sprintf "q=%d" quantum in
  let mix, served, encodeds = run_closed ~policy ~scheduler ~quantum in
  check_int (name ^ " total cycles") mix.Resilient.rr_makespan
    served.Serve.sv_summary.Serve.s_total_cycles;
  check_int (name ^ " switches") mix.Resilient.rr_switches
    served.Serve.sv_summary.Serve.s_switches;
  check_int (name ^ " flushes") mix.Resilient.rr_flushes
    served.Serve.sv_summary.Serve.s_flushes;
  Alcotest.(check (float 1e-9))
    (name ^ " hit ratio") mix.Resilient.rr_hit_ratio
    served.Serve.sv_summary.Serve.s_hit_ratio;
  check_int (name ^ " all jobs completed")
    (List.length mix.Resilient.rr_programs)
    served.Serve.sv_summary.Serve.s_completed;
  List.iter2
    (fun ((pr : Resilient.program_report), (_, encoded)) (j : Serve.job) ->
      check_string (name ^ " name") pr.Resilient.pr_name j.Serve.j_name;
      check_int (name ^ " asid") pr.Resilient.pr_asid j.Serve.j_asid;
      check_int (name ^ " cycles") pr.Resilient.pr_cycles j.Serve.j_cycles;
      check_int (name ^ " solo")
        (Resilient.solo ~config:small_config encoded).Resilient.sr_cycles
        j.Serve.j_solo_cycles;
      (match j.Serve.j_status with
      | Serve.Completed s when s = pr.Resilient.pr_status -> ()
      | _ -> Alcotest.fail (name ^ ": status mismatch"));
      check_int (name ^ " queue delay") 0 j.Serve.j_queue_delay)
    (List.combine mix.Resilient.rr_programs encodeds)
    served.Serve.sv_jobs;
  (* per-ASID trace rollups: the PR 3 counter families must be
     bit-identical (admits are new, and only on the serve side) *)
  List.iter
    (fun (pr : Resilient.program_report) ->
      let m = Trace.counts mix.Resilient.rr_trace pr.Resilient.pr_asid in
      let s = Trace.counts served.Serve.sv_trace pr.Resilient.pr_asid in
      check_int (name ^ " dispatches") m.Trace.c_dispatches
        s.Trace.c_dispatches;
      check_int (name ^ " flush rollup") m.Trace.c_flushes s.Trace.c_flushes;
      check_int (name ^ " translations") m.Trace.c_translations
        s.Trace.c_translations;
      check_int (name ^ " expiries") m.Trace.c_expiries s.Trace.c_expiries)
    mix.Resilient.rr_programs

let test_closed_pin_policies () =
  List.iter
    (fun policy ->
      check_closed_pin ~policy ~scheduler:Scheduler.Round_robin ~quantum:32;
      check_closed_pin ~policy ~scheduler:Scheduler.Round_robin ~quantum:7)
    [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]

let test_closed_pin_srtf () =
  List.iter
    (fun policy ->
      check_closed_pin ~policy ~scheduler:Scheduler.Shortest_remaining
        ~quantum:32)
    [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]

let test_closed_pin_solo_quantum () =
  check_closed_pin ~policy:Dtb.Tagged ~scheduler:Scheduler.Round_robin
    ~quantum:Resilient.solo_quantum

(* -- The served numbers, pinned --------------------------------------------- *)

(* Literal goldens for the open service, recorded from the serve driver
   as it stood before Serve.run and Chaos.run shared one kernel: three
   sharing policies x RR/SRTF, plus one run with a shedding threshold and
   the cold-ASID economy.  The pool is light (118k-320k solo cycles per
   template) and the offered load sits past the knee, so queueing, slot
   recycling and (under flush) switch flushes all show in the numbers.
   Each row pins (total cycles, p99 sojourn, switches, flushes, ASID
   evictions, trace events recorded, shed, cold evictions). *)
let served_goldens =
  let rr = Scheduler.Round_robin and srtf = Scheduler.Shortest_remaining in
  [
    ("flush/rr", Dtb.Flush_on_switch, rr, false,
     (6609930, 5017127, 3471, 3491, 21, 85219, 0, 0));
    ("flush/srtf", Dtb.Flush_on_switch, srtf, false,
     (5834424, 5362282, 7, 25, 19, 66990, 0, 0));
    ("tagged/rr", Dtb.Tagged, rr, false,
     (6585123, 4992377, 3471, 0, 21, 81350, 0, 0));
    ("tagged/srtf", Dtb.Tagged, srtf, false,
     (5834424, 5362282, 7, 0, 19, 66984, 0, 0));
    ("partitioned/rr", Dtb.Partitioned, rr, false,
     (7389833, 5743866, 3471, 0, 21, 92958, 0, 0));
    ("partitioned/srtf", Dtb.Partitioned, srtf, false,
     (7360510, 6888368, 7, 0, 21, 89098, 0, 0));
    ("partitioned/srtf/shed+economy", Dtb.Partitioned, srtf, true,
     (3559923, 3087781, 7, 0, 9, 42316, 13, 2));
  ]

(* Run [serve] once per golden row, over the pinned pool and arrivals:
   24 Poisson jobs at 20 per Mcycle, quantum 24, 3 slots. *)
let each_served_case serve =
  let templates =
    List.map
      (fun n -> (n, Codec.encode Kind.Huffman (compile n)))
      [ "fact_iter"; "flat_straightline"; "string_out" ]
  in
  let arrivals =
    Arrival.generate ~seed:5 ~templates:3 ~jobs:24
      (Arrival.Poisson { rate = 20.0 })
  in
  List.iter
    (fun (name, policy, scheduler, shed, golden) ->
      let admission, economy =
        if shed then
          ( Some { Serve.queue_capacity = 8; shed_above = Some 3 },
            Some Serve.default_economy )
        else (None, None)
      in
      let r : Serve.result =
        serve ~policy ~scheduler ~admission ~economy ~quantum:24
          ~config:small_config ~slots:3 ~templates ~arrivals
      in
      let total, p99, switches, flushes, evictions, recorded, shed, cold =
        golden
      in
      let s = r.Serve.sv_summary in
      check_int (name ^ " total cycles") total s.Serve.s_total_cycles;
      check_int (name ^ " p99") p99 s.Serve.s_p99;
      check_int (name ^ " switches") switches s.Serve.s_switches;
      check_int (name ^ " flushes") flushes s.Serve.s_flushes;
      check_int (name ^ " evictions") evictions s.Serve.s_evictions;
      check_int (name ^ " events recorded") recorded
        (Trace.recorded r.Serve.sv_trace);
      check_int (name ^ " shed") shed s.Serve.s_shed;
      check_int (name ^ " cold evictions") cold s.Serve.s_cold_evictions)
    served_goldens

let test_served_goldens () =
  each_served_case
    (fun ~policy ~scheduler ~admission ~economy ~quantum ~config ~slots
         ~templates ~arrivals ->
      Serve.run ~scheduler ?admission ?economy ~policy ~quantum ~config ~slots
        ~templates ~arrivals ())

(* -- Tentpole: open-system behaviour ---------------------------------------- *)

let open_templates () =
  List.map
    (fun n -> (n, Codec.encode Kind.Huffman (compile n)))
    [ "fact_iter"; "gcd" ]

let test_open_run_accounting () =
  let templates = open_templates () in
  let arrivals =
    Arrival.generate ~seed:5 ~templates:(List.length templates) ~jobs:200
      (Arrival.Poisson { rate = 2000.0 })
  in
  let r =
    Serve.run ~policy:Dtb.Tagged ~quantum:32 ~config:small_config ~slots:4
      ~templates ~arrivals ()
  in
  let s = r.Serve.sv_summary in
  check_int "all offered" 200 s.Serve.s_jobs;
  check_int "conservation" 200
    (s.Serve.s_completed + s.Serve.s_failed + s.Serve.s_shed);
  check_int "no failures" 0 s.Serve.s_failed;
  check_bool "clock advanced" true (s.Serve.s_total_cycles > 0);
  check_bool "p50 <= p95" true (s.Serve.s_p50 <= s.Serve.s_p95);
  check_bool "p95 <= p99" true (s.Serve.s_p95 <= s.Serve.s_p99);
  List.iter
    (fun (j : Serve.job) ->
      match j.Serve.j_status with
      | Serve.Shed ->
          check_int "shed asid" (-1) j.Serve.j_asid;
          check_int "shed sojourn" 0 j.Serve.j_sojourn
      | Serve.Completed _ ->
          check_bool "admit >= arrival" true (j.Serve.j_admit >= j.Serve.j_arrival);
          check_bool "finish > admit" true (j.Serve.j_finish > j.Serve.j_admit);
          check_int "queue delay" (j.Serve.j_admit - j.Serve.j_arrival)
            j.Serve.j_queue_delay;
          check_int "sojourn" (j.Serve.j_finish - j.Serve.j_arrival)
            j.Serve.j_sojourn;
          check_bool "slowdown >= 1" true (j.Serve.j_slowdown >= 1.)
      | Serve.Failed _ -> Alcotest.fail "plain Serve.run produced Failed")
    r.Serve.sv_jobs;
  (* trace totals agree with the summary *)
  check_int "queued events" (200 - s.Serve.s_shed)
    (Trace.queued_total r.Serve.sv_trace);
  check_int "shed events" s.Serve.s_shed (Trace.shed_total r.Serve.sv_trace);
  let admits =
    List.fold_left
      (fun acc (_, c) -> acc + c.Trace.c_admits)
      0
      (Trace.tallies r.Serve.sv_trace)
  in
  check_int "admit events" (200 - s.Serve.s_shed) admits

let test_determinism_large_run () =
  let templates = open_templates () in
  let arrivals =
    Arrival.generate ~seed:13 ~templates:(List.length templates) ~jobs:1200
      (Arrival.Poisson { rate = 6000.0 })
  in
  let go () =
    Serve.run ~policy:Dtb.Tagged ~quantum:32 ~config:small_config ~slots:4
      ~economy:Serve.default_economy ~templates ~arrivals ()
  in
  let a = go () and b = go () in
  check_int "1200 jobs offered" 1200 a.Serve.sv_summary.Serve.s_jobs;
  check_bool "jobs identical" true (a.Serve.sv_jobs = b.Serve.sv_jobs);
  check_bool "summaries identical" true
    (a.Serve.sv_summary = b.Serve.sv_summary);
  check_bool "tallies identical" true
    (Trace.tallies a.Serve.sv_trace = Trace.tallies b.Serve.sv_trace)

(* The serving grid at fault rate 0 alone is the load study (uhmc load,
   bench load): its cells are byte-identical at any domain count. *)
let load_grid ?cell_fuel ~domains programs =
  Experiment.resilience_grid_slots ~domains ?cell_fuel ~seed:3 ~jobs:120
    ~slots:4 ~kind:Kind.Huffman
    ~policies:[ Dtb.Flush_on_switch; Dtb.Tagged ]
    ~fault_rates:[ 0. ] ~rates:[ 1000.0; 4000.0 ] ~config:small_config
    programs

let test_load_grid_domain_independence () =
  let programs =
    List.map (fun n -> (n, compile n)) [ "fact_iter"; "gcd" ]
  in
  let go domains =
    load_grid ~domains programs
    |> List.map (function
         | Uhm_core.Sweep.Completed c -> c
         | Uhm_core.Sweep.Quarantined _ -> Alcotest.fail "cell quarantined")
  in
  let one = go 1 and four = go 4 in
  check_int "cell count" 4 (List.length one);
  List.iter2
    (fun (a : Experiment.resilience_cell) (b : Experiment.resilience_cell) ->
      let serve (c : Experiment.resilience_cell) =
        c.Experiment.rc_result.Uhm_serve.Chaos.cv_serve
      in
      check_bool "axes match" true
        (a.Experiment.rc_policy = b.Experiment.rc_policy
        && a.Experiment.rc_quantum = b.Experiment.rc_quantum
        && a.Experiment.rc_fault_rate = b.Experiment.rc_fault_rate
        && a.Experiment.rc_rate = b.Experiment.rc_rate);
      check_bool "jobs byte-identical" true
        ((serve a).Serve.sv_jobs = (serve b).Serve.sv_jobs);
      check_bool "summary byte-identical" true
        ((serve a).Serve.sv_summary = (serve b).Serve.sv_summary))
    one four

(* The grid's one failed-cell rule: an accepted job that did not halt
   fails its cell.  With a per-job fuel budget below every template's
   solo cost, every job runs out of fuel, so every cell is retried and
   then quarantined, naming the fuel exhaustion. *)
let test_load_grid_fuel_quarantines () =
  let programs =
    List.map (fun n -> (n, compile n)) [ "fact_iter"; "gcd" ]
  in
  let slots = load_grid ~cell_fuel:1000 ~domains:1 programs in
  check_int "cell count" 4 (List.length slots);
  List.iter
    (function
      | Uhm_core.Sweep.Completed _ -> Alcotest.fail "cell completed"
      | Uhm_core.Sweep.Quarantined q ->
          check_bool
            ("reason names fuel exhaustion: " ^ q.Uhm_core.Sweep.q_reason)
            true
            (Astring_contains.contains q.Uhm_core.Sweep.q_reason
               "ran out of fuel"))
    slots

let test_admission_queue () =
  let templates = open_templates () in
  (* everyone at cycle 0, one slot, tiny queue: most arrivals shed *)
  let arrivals = List.init 20 (fun i -> { Arrival.at = 0; template = i mod 2 }) in
  let r =
    Serve.run ~policy:Dtb.Tagged ~quantum:32 ~config:small_config ~slots:1
      ~admission:{ Serve.queue_capacity = 3; shed_above = None }
      ~templates ~arrivals ()
  in
  let s = r.Serve.sv_summary in
  (* all 20 are ingested at cycle 0 before any admission: 3 fit the
     queue, the rest are drop-tail shed *)
  check_int "shed" 17 s.Serve.s_shed;
  check_int "completed" 3 s.Serve.s_completed;
  check_int "max depth" 3 s.Serve.s_max_depth;
  (* soft shedding threshold kicks in below capacity *)
  let r2 =
    Serve.run ~policy:Dtb.Tagged ~quantum:32 ~config:small_config ~slots:1
      ~admission:{ Serve.queue_capacity = 64; shed_above = Some 2 }
      ~templates ~arrivals ()
  in
  check_int "shed above soft threshold" 18 r2.Serve.sv_summary.Serve.s_shed;
  check_int "soft max depth" 2 r2.Serve.sv_summary.Serve.s_max_depth

let test_eviction_economy () =
  let templates = open_templates () in
  let arrivals =
    Arrival.generate ~seed:21 ~templates:(List.length templates) ~jobs:150
      (Arrival.Poisson { rate = 8000.0 })
  in
  let run economy =
    Serve.run ~policy:Dtb.Tagged ~quantum:16 ~config:small_config ~slots:6
      ?economy ~templates ~arrivals ()
  in
  let without = run None in
  let with_e =
    run (Some { Serve.evict_min_idle = 1; evict_watermark = 0.25 })
  in
  check_int "no cold evictions without economy" 0
    without.Serve.sv_summary.Serve.s_cold_evictions;
  check_bool "economy evicts cold slots" true
    (with_e.Serve.sv_summary.Serve.s_cold_evictions > 0);
  (* the economy changes performance, never results *)
  check_int "same completions" without.Serve.sv_summary.Serve.s_completed
    with_e.Serve.sv_summary.Serve.s_completed;
  check_int "no failures" 0 with_e.Serve.sv_summary.Serve.s_failed;
  let evicts =
    List.fold_left
      (fun acc (_, c) -> acc + c.Trace.c_evicts)
      0
      (Trace.tallies with_e.Serve.sv_trace)
  in
  check_int "evict events tallied" with_e.Serve.sv_summary.Serve.s_evictions
    evicts

let test_chrome_export_serve_events () =
  let templates = open_templates () in
  let arrivals =
    Arrival.generate ~seed:2 ~templates:(List.length templates) ~jobs:60
      (Arrival.Poisson { rate = 8000.0 })
  in
  let serve ?economy ~config capacity =
    Serve.run ~policy:Dtb.Tagged ~quantum:16 ~config ~slots:2
      ~trace_capacity:capacity ?economy ~templates ~arrivals ()
  in
  let chrome r =
    Trace.to_chrome
      ~names:(fun i -> Printf.sprintf "slot%d" i)
      ~end_cycle:r.Serve.sv_summary.Serve.s_total_cycles r.Serve.sv_trace
  in
  (* full ring at a geometry that holds the working sets: queue/admit
     markers survive into the export and nothing is dropped *)
  let roomy =
    { Dtb.sets = 64; assoc = 4; unit_words = 4; overflow_blocks = 64 }
  in
  let full = serve ~config:roomy 1_048_576 in
  let json = chrome full in
  check_int "nothing dropped" 0 (Trace.dropped full.Serve.sv_trace);
  check_bool "queue depth counter" true
    (Astring_contains.contains json "queue_depth");
  check_bool "admit instants" true (Astring_contains.contains json "admit:");
  check_bool "no drop marker" false
    (Astring_contains.contains json "ring_dropped:");
  (* a 32-entry ring under 60 jobs must have dropped, and say so *)
  let tiny =
    serve
      ~economy:{ Serve.evict_min_idle = 1; evict_watermark = 0.25 }
      ~config:small_config 32
  in
  let json = chrome tiny in
  check_bool "ring dropped events" true (Trace.dropped tiny.Serve.sv_trace > 0);
  check_bool "export records the drop" true
    (Astring_contains.contains json "ring_dropped:")

(* -- Satellite: DTB idle/footprint accounting ------------------------------- *)

let install dtb ~tag =
  (match Dtb.lookup dtb ~tag with `Hit _ -> () | `Miss -> ());
  Dtb.begin_translation dtb ~tag;
  ignore (Dtb.emit dtb 1);
  ignore (Dtb.end_translation dtb)

let test_dtb_idle_accounting () =
  let dtb =
    Dtb.create_shared ~policy:Dtb.Tagged ~programs:4 small_config
      ~buffer_base:0
  in
  Dtb.switch_to dtb ~asid:1;
  install dtb ~tag:5;
  install dtb ~tag:6;
  check_int "asid 1 footprint" 2 (Dtb.asid_footprint dtb ~asid:1);
  check_int "asid 2 footprint" 0 (Dtb.asid_footprint dtb ~asid:2);
  let last1 = Dtb.asid_last_use dtb ~asid:1 in
  check_bool "asid 1 used" true (last1 > 0);
  Dtb.switch_to dtb ~asid:2;
  install dtb ~tag:5;
  check_int "asid 1 footprint unchanged" 2 (Dtb.asid_footprint dtb ~asid:1);
  check_int "asid 1 last_use frozen" last1 (Dtb.asid_last_use dtb ~asid:1);
  check_bool "asid 2 fresher" true (Dtb.asid_last_use dtb ~asid:2 > last1);
  check_bool "clock advances" true (Dtb.use_clock dtb > last1);
  check_int "invalidation drops both" 2 (Dtb.invalidate_asid dtb ~asid:1);
  check_int "invalidated footprint" 0 (Dtb.asid_footprint dtb ~asid:1);
  check_int "asid 2 survives" 1 (Dtb.asid_footprint dtb ~asid:2);
  (match Dtb.asid_last_use dtb ~asid:9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range asid must raise")

let suite =
  ( "serve",
    [
      Alcotest.test_case "prng golden draws" `Quick test_prng_golden;
      Alcotest.test_case "prng split independence" `Quick
        test_prng_split_independent;
      Alcotest.test_case "prng samplers" `Quick test_prng_samplers;
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:500 ~name:"nearest_rank = sort oracle"
           QCheck.(
             pair (list_of_size Gen.(1 -- 200) (int_bound 10_000)) (1 -- 100))
           (fun (values, pi) ->
             Percentile.nearest_rank (Array.of_list values)
               ~p:(float_of_int pi)
             = oracle (Array.of_list values) (float_of_int pi)));
      Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
      Alcotest.test_case "poisson arrivals pinned" `Quick test_poisson_arrivals;
      Alcotest.test_case "burst lengths pinned" `Quick test_burst_lengths;
      Alcotest.test_case "bursty and trace arrivals" `Quick
        test_bursty_and_trace_arrivals;
      Alcotest.test_case "closed-system pin, rr, all policies" `Quick
        test_closed_pin_policies;
      Alcotest.test_case "closed-system pin, srtf" `Quick test_closed_pin_srtf;
      Alcotest.test_case "closed-system pin, solo quantum" `Quick
        test_closed_pin_solo_quantum;
      Alcotest.test_case "served numbers pinned (goldens)" `Quick
        test_served_goldens;
      Alcotest.test_case "open run accounting" `Quick test_open_run_accounting;
      Alcotest.test_case "1200-job run deterministic" `Quick
        test_determinism_large_run;
      Alcotest.test_case "load grid domain-independent" `Quick
        test_load_grid_domain_independence;
      Alcotest.test_case "load grid: out-of-fuel jobs quarantine" `Quick
        test_load_grid_fuel_quarantines;
      Alcotest.test_case "admission queue bounds and shedding" `Quick
        test_admission_queue;
      Alcotest.test_case "eviction economy" `Quick test_eviction_economy;
      Alcotest.test_case "chrome export of serve events" `Quick
        test_chrome_export_serve_events;
      Alcotest.test_case "dtb idle/footprint accounting" `Quick
        test_dtb_idle_accounting;
    ] )
