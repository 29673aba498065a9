(* Tests for the Domain-based sweep engine: submission-order results,
   first-error-by-index exception propagation, pool reuse, UHM_JOBS
   parsing, end-to-end determinism of the experiment grids at 1 vs N
   domains, and the dir_steps memo. *)

module Sweep = Uhm_core.Sweep
module Experiment = Uhm_core.Experiment
module U = Uhm_core.Uhm
module Kind = Uhm_encoding.Kind
module Suite = Uhm_workload.Suite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- The pool itself --------------------------------------------------------- *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun i -> i * i) xs in
  Alcotest.(check (list int))
    "4 domains = serial map" expected
    (Sweep.map ~domains:4 (fun i -> i * i) xs);
  Alcotest.(check (list int))
    "1 domain (inline path)" expected
    (Sweep.map ~domains:1 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "empty job list" [] (Sweep.map ~domains:4 Fun.id []);
  Alcotest.(check (list int))
    "more domains than jobs" [ 9 ]
    (Sweep.map ~domains:8 (fun i -> i * i) [ 3 ])

exception Boom of int

let test_first_error_by_index () =
  (* jobs 3 and 7 both raise; the escaping exception must be job 3's
     regardless of which worker ran first *)
  match
    Sweep.map ~domains:4
      (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "first raising job by index" 3 i

let test_pool_reuse () =
  let pool = Sweep.create ~domains:3 () in
  check_int "domain count" 3 (Sweep.domains pool);
  let a = Sweep.map_pool pool (fun i -> i * 2) (List.init 10 Fun.id) in
  let b = Sweep.map_pool pool (fun i -> i + 1) (List.init 5 Fun.id) in
  Sweep.shutdown pool;
  Alcotest.(check (list int)) "first batch" (List.init 10 (fun i -> i * 2)) a;
  Alcotest.(check (list int)) "second batch" (List.init 5 (fun i -> i + 1)) b

let with_jobs_env value f =
  let old = Sys.getenv_opt "UHM_JOBS" in
  Unix.putenv "UHM_JOBS" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "UHM_JOBS" (Option.value ~default:"" old))
    f

let test_jobs_env () =
  with_jobs_env "3" (fun () ->
      check_int "UHM_JOBS=3" 3 (Sweep.default_domains ()));
  with_jobs_env "garbage" (fun () ->
      check_bool "garbage falls back to a positive default" true
        (Sweep.default_domains () >= 1));
  with_jobs_env "0" (fun () ->
      check_bool "0 falls back to a positive default" true
        (Sweep.default_domains () >= 1));
  with_jobs_env "2" (fun () ->
      (* maps with no explicit ~domains pick the env value and stay ordered *)
      Alcotest.(check (list int))
        "env-driven map is ordered" (List.init 20 succ)
        (Sweep.map succ (List.init 20 Fun.id)))

(* A raising FIRST job is the earliest-index error by construction; the
   pool must drain the rest, propagate it, and stay usable — neither a
   deadlocked worker nor a leaked domain. *)
let test_raising_first_job () =
  let pool = Sweep.create ~domains:4 () in
  (match
     Sweep.map_pool pool
       (fun i -> if i = 0 then raise (Boom 0) else i)
       (List.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "job 0's exception escapes" 0 i);
  (* the same pool still answers: no worker died holding the queue lock *)
  Alcotest.(check (list int))
    "pool usable after the error" [ 0; 2; 4 ]
    (Sweep.map_pool pool (fun i -> i * 2) [ 0; 1; 2 ]);
  Sweep.shutdown pool;
  (* the one-shot wrapper also survives (its private pool is torn down) *)
  (match
     Sweep.map ~domains:4
       (fun i -> if i = 0 then raise (Boom 0) else i)
       (List.init 8 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "one-shot map: job 0's exception" 0 i);
  Alcotest.(check (list int))
    "fresh map after a failed one" [ 1; 2; 3 ]
    (Sweep.map ~domains:4 succ [ 0; 1; 2 ])

(* A raising cost hint fires in the caller before any job is dispatched;
   no worker can be left waiting on a batch that never starts. *)
exception Bad_cost

let test_raising_cost_hint () =
  let pool = Sweep.create ~domains:3 () in
  (match
     Sweep.map_pool pool
       ~cost:(fun i -> if i = 5 then raise Bad_cost else i)
       (fun i -> i)
       (List.init 8 Fun.id)
   with
  | _ -> Alcotest.fail "expected Bad_cost"
  | exception Bad_cost -> ());
  Alcotest.(check (list int))
    "pool usable after the cost error" [ 10; 11 ]
    (Sweep.map_pool pool (fun i -> i + 10) [ 0; 1 ]);
  Sweep.shutdown pool;
  (match
     Sweep.map ~domains:3
       ~cost:(fun i -> if i = 0 then raise Bad_cost else i)
       (fun i -> i)
       [ 0; 1; 2 ]
   with
  | _ -> Alcotest.fail "expected Bad_cost"
  | exception Bad_cost -> ());
  Alcotest.(check (list int))
    "fresh map after a cost error" [ 0; 1; 2 ]
    (Sweep.map ~domains:3 Fun.id [ 0; 1; 2 ])

(* -- Cost hints -------------------------------------------------------------- *)

let test_cost_results_identical () =
  let xs = List.init 50 Fun.id in
  let expected = List.map (fun i -> i * 3) xs in
  Alcotest.(check (list int))
    "cost hint leaves results byte-identical (4 domains)" expected
    (Sweep.map ~domains:4 ~cost:(fun i -> 100 - i) (fun i -> i * 3) xs);
  Alcotest.(check (list int))
    "cost hint leaves results byte-identical (1 domain)" expected
    (Sweep.map ~domains:1 ~cost:(fun i -> 100 - i) (fun i -> i * 3) xs)

let test_cost_first_error () =
  (* the cost hint makes job 7 run before job 3, but the escaping
     exception must still be the lowest submission index's *)
  match
    Sweep.map ~domains:4
      ~cost:(fun i -> i)
      (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "first raising job by submission index" 3 i

let test_cost_claim_order () =
  (* at one domain the caller runs the jobs itself, so a side effect
     observes the claim order: descending cost, submission order on ties *)
  let order = ref [] in
  let results =
    Sweep.map ~domains:1
      ~cost:(fun i -> i mod 4)
      (fun i ->
        order := i :: !order;
        i * 10)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check (list int))
    "results in submission order"
    [ 0; 10; 20; 30; 40; 50; 60; 70 ]
    results;
  Alcotest.(check (list int))
    "execution in descending cost, stable on ties"
    [ 3; 7; 2; 6; 1; 5; 0; 4 ]
    (List.rev !order)

(* -- Determinism of the experiment grids ------------------------------------- *)

let subset = [ "fact_iter"; "gcd"; "flat_straightline"; "ftn_euclid" ]

let test_summary_rows_deterministic () =
  let r1 = Experiment.summary_rows ~domains:1 ~names:subset () in
  let r4 = Experiment.summary_rows ~domains:4 ~names:subset () in
  check_int "row count" (List.length subset) (List.length r1);
  Alcotest.(check (list string))
    "row order = submission order"
    [ "fact_iter"; "gcd"; "flat_straightline"; "ftn_euclid" ]
    (List.map (fun r -> r.Experiment.sr_program) r1);
  check_bool "summary rows identical at 1 vs 4 domains" true (r1 = r4)

let test_dtb_grid_deterministic () =
  let progs =
    List.map
      (fun n -> (n, Suite.compile (Suite.find n)))
      [ "fact_iter"; "fib_rec" ]
  in
  let completed = function
    | Sweep.Completed pt -> pt
    | Sweep.Quarantined q ->
        Alcotest.failf "point %d quarantined" q.Sweep.q_index
  in
  let grid d =
    Experiment.dtb_grid_slots ~domains:d ~kind:Kind.Huffman
      ~configs:(Experiment.capacity_configs ())
      progs
    |> List.map (fun (name, slots) -> (name, List.map completed slots))
  in
  let g1 = grid 1 and g4 = grid 4 in
  check_int "programs" 2 (List.length g1);
  check_int "points per program"
    (List.length (Experiment.capacity_configs ()))
    (List.length (snd (List.hd g1)));
  check_bool "grid identical at 1 vs 4 domains" true (g1 = g4)

(* -- Supervised sweeps: retry, quarantine, cache, hooks ---------------------- *)

(* a fast retry schedule so the tests don't sleep for real *)
let fast = { Sweep.default_supervision with Sweep.sv_backoff = 1e-4 }

let slot_value = function
  | Sweep.Completed v -> Some v
  | Sweep.Quarantined _ -> None

let test_supervised_all_ok () =
  let xs = List.init 20 Fun.id in
  let expected = List.map (fun i -> Sweep.Completed (i * i)) xs in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "all cells completed at %d domain(s)" domains)
        true
        (Sweep.map_supervised ~supervision:fast ~domains
           (fun i -> i * i)
           xs
        = expected))
    [ 1; 4 ]

let test_supervised_quarantine () =
  (* cell 3 fails on every attempt: the grid must still complete, with
     exactly that cell quarantined after the full retry budget *)
  List.iter
    (fun domains ->
      let slots =
        Sweep.map_supervised ~supervision:fast ~domains
          (fun i -> if i = 3 then raise (Boom i) else i * 10)
          (List.init 8 Fun.id)
      in
      check_int "slot count" 8 (List.length slots);
      List.iteri
        (fun i slot ->
          if i = 3 then
            match slot with
            | Sweep.Completed _ -> Alcotest.fail "cell 3 must be quarantined"
            | Sweep.Quarantined q ->
                check_int "quarantine index" 3 q.Sweep.q_index;
                check_int "attempts = sv_attempts" fast.Sweep.sv_attempts
                  q.Sweep.q_attempts;
                check_bool "reason mentions the exception" true
                  (String.length q.Sweep.q_reason > 0)
          else
            Alcotest.(check (option int))
              (Printf.sprintf "cell %d intact" i)
              (Some (i * 10)) (slot_value slot))
        slots)
    [ 1; 4 ]

let test_supervised_retry_then_succeed () =
  (* cell 2 fails twice and then succeeds; the hook must see the true
     attempt count and the slot must carry the eventual value *)
  List.iter
    (fun domains ->
      let failures = Array.make 8 0 in
      let m = Mutex.create () in
      let hook_attempts = Hashtbl.create 8 in
      let hook ~index ~attempts slot =
        Mutex.lock m;
        Hashtbl.replace hook_attempts index (attempts, slot_value slot);
        Mutex.unlock m
      in
      let slots =
        Sweep.map_supervised ~supervision:fast ~domains ~cell_hook:hook
          (fun i ->
            if i = 2 then begin
              (* attempts of one cell always run on one domain, in order *)
              let k =
                Mutex.lock m;
                failures.(i) <- failures.(i) + 1;
                let k = failures.(i) in
                Mutex.unlock m;
                k
              in
              if k <= 2 then raise (Boom i)
            end;
            i + 100)
          (List.init 8 Fun.id)
      in
      List.iteri
        (fun i slot ->
          Alcotest.(check (option int))
            (Printf.sprintf "cell %d completed (%d domains)" i domains)
            (Some (i + 100)) (slot_value slot))
        slots;
      Alcotest.(check (option int))
        "hook saw cell 2 on its third attempt"
        (Some 3)
        (Option.map fst (Hashtbl.find_opt hook_attempts 2));
      Alcotest.(check (option int))
        "hook saw cell 0 on its first attempt"
        (Some 1)
        (Option.map fst (Hashtbl.find_opt hook_attempts 0)))
    [ 1; 4 ]

let test_supervised_cached () =
  (* cached cells are served without running the job or firing the hook *)
  List.iter
    (fun domains ->
      let ran = Array.make 6 false in
      let m = Mutex.create () in
      let hooked = Hashtbl.create 6 in
      let hook ~index ~attempts:_ _slot =
        Mutex.lock m;
        Hashtbl.replace hooked index ();
        Mutex.unlock m
      in
      let cached i = if i mod 2 = 0 then Some (i * 1000) else None in
      let slots =
        Sweep.map_supervised ~supervision:fast ~domains ~cached
          ~cell_hook:hook
          (fun i ->
            Mutex.lock m;
            ran.(i) <- true;
            Mutex.unlock m;
            i * 1000)
          (List.init 6 Fun.id)
      in
      List.iteri
        (fun i slot ->
          Alcotest.(check (option int))
            (Printf.sprintf "cell %d value" i)
            (Some (i * 1000)) (slot_value slot);
          check_bool
            (Printf.sprintf "cell %d ran iff not cached" i)
            (i mod 2 <> 0) ran.(i);
          check_bool
            (Printf.sprintf "hook fired iff cell %d was computed" i)
            (i mod 2 <> 0)
            (Hashtbl.mem hooked i))
        slots)
    [ 1; 4 ]

let test_supervised_wall_watchdog () =
  (* a genuinely wedged job (sleeping far past the limit) is quarantined
     by the wall-clock watchdog while the rest of the grid completes;
     needs >= 2 domains so a worker can be written off *)
  let sv =
    { fast with Sweep.sv_attempts = 1; sv_wall_limit = Some 0.05;
      sv_poll = 0.005 }
  in
  let slots =
    Sweep.map_supervised ~supervision:sv ~domains:3
      (fun i ->
        if i = 1 then Unix.sleepf 1.2;
        i)
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i slot ->
      match (i, slot) with
      | 1, Sweep.Quarantined q ->
          check_bool "watchdog reason" true
            (String.length q.Sweep.q_reason > 0)
      | 1, Sweep.Completed _ -> Alcotest.fail "wedged cell must be quarantined"
      | _, slot ->
          Alcotest.(check (option int))
            (Printf.sprintf "cell %d intact" i)
            (Some i) (slot_value slot))
    slots

exception Hook_boom of int

let test_supervised_raising_hook () =
  (* a hook that raises (the journal hitting a full disk, say) must not
     kill a worker domain and hang the sweep: every cell still completes
     (and its hook still fires), and the earliest failing hook's
     exception escapes once the grid has drained *)
  List.iter
    (fun domains ->
      let fired = Array.make 8 false in
      let m = Mutex.create () in
      let hook ~index ~attempts:_ _slot =
        Mutex.lock m;
        fired.(index) <- true;
        Mutex.unlock m;
        if index = 2 || index = 5 then raise (Hook_boom index)
      in
      (match
         Sweep.map_supervised ~supervision:fast ~domains ~cell_hook:hook
           (fun i -> i * 10)
           (List.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Hook_boom"
      | exception Hook_boom i ->
          check_int
            (Printf.sprintf "earliest failing hook by index (%d domains)"
               domains)
            2 i);
      check_bool "every cell's hook still fired" true
        (Array.for_all Fun.id fired))
    [ 1; 4 ];
  (* a shared pool survives the hook failure *)
  let pool = Sweep.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Sweep.shutdown pool)
    (fun () ->
      (match
         Sweep.map_pool_supervised ~supervision:fast pool
           ~cell_hook:(fun ~index ~attempts:_ _slot ->
             if index = 0 then raise (Hook_boom 0))
           Fun.id [ 0; 1; 2 ]
       with
      | _ -> Alcotest.fail "expected Hook_boom"
      | exception Hook_boom _ -> ());
      Alcotest.(check (list int))
        "pool usable after a hook failure" [ 1; 2; 3 ]
        (Sweep.map_pool pool succ [ 0; 1; 2 ]))

let test_watchdog_recovery_rejoins () =
  (* a job the watchdog wrote off but that *does* eventually return must
     put its worker back on the books: [abandoned] drops to zero, the
     recovered worker serves later batches, and shutdown joins cleanly *)
  let sv =
    { fast with Sweep.sv_attempts = 1; sv_wall_limit = Some 0.05;
      sv_poll = 0.005 }
  in
  let pool = Sweep.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Sweep.shutdown pool)
    (fun () ->
      let slots =
        Sweep.map_pool_supervised ~supervision:sv pool
          (fun i ->
            if i = 1 then Unix.sleepf 1.0;
            i)
          [ 0; 1; 2; 3 ]
      in
      (match List.nth slots 1 with
      | Sweep.Quarantined _ -> ()
      | Sweep.Completed _ -> Alcotest.fail "wedged cell must be quarantined");
      check_int "worker written off while its job is wedged" 1
        (Sweep.abandoned pool);
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Sweep.abandoned pool > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      check_int "worker restored once its job returned" 0
        (Sweep.abandoned pool);
      Alcotest.(check (list int))
        "pool usable after recovery" [ 0; 10; 20; 30 ]
        (List.filter_map slot_value
           (Sweep.map_pool_supervised ~supervision:fast pool
              (fun i -> i * 10)
              [ 0; 1; 2; 3 ])))

(* -- Re-entrancy detection --------------------------------------------------- *)

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument msg ->
      check_bool (name ^ ": message names re-entry") true
        (String.length msg > 0)

let test_reentry_detected () =
  List.iter
    (fun domains ->
      let pool = Sweep.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Sweep.shutdown pool)
        (fun () ->
          (* re-entering the same pool from inside its own job must raise
             instead of deadlocking *)
          expect_invalid_arg
            (Printf.sprintf "map_pool re-entry (%d domains)" domains)
            (fun () ->
              Sweep.map_pool pool
                (fun _ -> Sweep.map_pool pool Fun.id [ 1; 2 ])
                [ 0 ]);
          (* the pool survives the rejected re-entry *)
          Alcotest.(check (list int))
            "pool usable after rejected re-entry" [ 2; 3 ]
            (Sweep.map_pool pool succ [ 1; 2 ]);
          (* a nested sweep on a *fresh* pool is fine *)
          Alcotest.(check (list (list int)))
            "nested sweep on a distinct pool" [ [ 10; 20 ] ]
            (Sweep.map_pool pool
               (fun _ -> Sweep.map ~domains:1 (fun i -> i * 10) [ 1; 2 ])
               [ 0 ])))
    [ 1; 3 ]

let test_reentry_detected_supervised () =
  (* a supervised job that re-enters its own pool fails instantly on
     every attempt (no deadlock) and ends up quarantined with the
     re-entry message as its reason *)
  let pool = Sweep.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Sweep.shutdown pool)
    (fun () ->
      match
        Sweep.map_pool_supervised ~supervision:fast pool
          (fun _ -> Sweep.map_pool pool Fun.id [ 1 ])
          [ 0 ]
      with
      | [ Sweep.Quarantined q ] ->
          check_bool "reason names the re-entry" true
            (let msg = q.Sweep.q_reason in
             let needle = "re-entered" in
             let n = String.length needle and m = String.length msg in
             let rec scan i =
               i + n <= m && (String.sub msg i n = needle || scan (i + 1))
             in
             scan 0)
      | [ Sweep.Completed _ ] ->
          Alcotest.fail "re-entrant job cannot complete"
      | _ -> Alcotest.fail "expected exactly one slot")

(* -- The dir_steps memo ------------------------------------------------------ *)

let test_dir_steps_memo () =
  let p = Suite.compile (Suite.find "gcd") in
  let reference = U.dir_steps_reference p in
  check_int "memo = reference" reference (U.dir_steps_memoized p);
  check_int "memo stable on re-query" reference (U.dir_steps_memoized p);
  let r = U.run ~strategy:U.Interp ~kind:Kind.Packed p in
  check_int "run's dir_steps served by the memo" reference r.U.dir_steps;
  (* concurrent queries from sweep workers agree with the reference *)
  let answers =
    Sweep.map ~domains:4 (fun _ -> U.dir_steps_memoized p) (List.init 16 Fun.id)
  in
  check_bool "memo consistent under concurrency" true
    (List.for_all (( = ) reference) answers)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "map preserves submission order" `Quick test_map_order;
      Alcotest.test_case "first error by index wins" `Quick
        test_first_error_by_index;
      Alcotest.test_case "pool survives multiple batches" `Quick
        test_pool_reuse;
      Alcotest.test_case "raising first job leaves the pool usable" `Quick
        test_raising_first_job;
      Alcotest.test_case "raising cost hint leaves the pool usable" `Quick
        test_raising_cost_hint;
      Alcotest.test_case "UHM_JOBS parsing" `Quick test_jobs_env;
      Alcotest.test_case "cost hint keeps results identical" `Quick
        test_cost_results_identical;
      Alcotest.test_case "cost hint keeps first-error-by-index" `Quick
        test_cost_first_error;
      Alcotest.test_case "cost hint orders claims by descending cost" `Quick
        test_cost_claim_order;
      Alcotest.test_case "supervised: all cells complete" `Quick
        test_supervised_all_ok;
      Alcotest.test_case "supervised: poison cell quarantined, rest intact"
        `Quick test_supervised_quarantine;
      Alcotest.test_case "supervised: retry then succeed, hook sees attempts"
        `Quick test_supervised_retry_then_succeed;
      Alcotest.test_case "supervised: cached cells skip job and hook" `Quick
        test_supervised_cached;
      Alcotest.test_case "supervised: wall-clock watchdog quarantines" `Slow
        test_supervised_wall_watchdog;
      Alcotest.test_case "supervised: raising hook cannot hang the sweep"
        `Quick test_supervised_raising_hook;
      Alcotest.test_case "watchdog: recovered worker is restored" `Slow
        test_watchdog_recovery_rejoins;
      Alcotest.test_case "re-entrant map_pool raises Invalid_argument" `Quick
        test_reentry_detected;
      Alcotest.test_case "re-entrant supervised job is quarantined" `Quick
        test_reentry_detected_supervised;
      Alcotest.test_case "summary rows identical at 1 vs 4 domains" `Slow
        test_summary_rows_deterministic;
      Alcotest.test_case "dtb grid identical at 1 vs 4 domains" `Slow
        test_dtb_grid_deterministic;
      Alcotest.test_case "dir_steps memo matches reference" `Quick
        test_dir_steps_memo;
    ] )
