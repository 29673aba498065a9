(* The BENCH document update: Perf.update_json replaces only the sections
   it is given and passes every other section through as parsed. *)

module Perf = Uhm_core.Perf

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fields path =
  match Perf.parse_json (read path) with
  | Perf.J_obj fields -> fields
  | _ -> Alcotest.fail (path ^ " is not a JSON object")

let with_doc contents f =
  let path = Filename.temp_file "uhm_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path contents;
      f path)

let sample ~workload ~backend ~us =
  {
    Perf.workload;
    strategy = "dtb";
    backend;
    encoding = "huffman";
    runs = 5;
    wall_seconds = us *. 5e-6;
    sim_cycles = 1000;
    host_instrs = 800;
    short_instrs = 200;
    dir_steps = 100;
    sim_cycles_per_sec = 1e9 /. us;
    host_instrs_per_sec = 8e8 /. us;
    wall_us_per_run = us;
  }

(* every section a v5 document carries, plus one this binary does not know *)
let full_doc =
  {|{
  "schema": "uhm-bench-simulator/5",
  "generated_by": "bench/main.exe perf",
  "unix_time": 1700000000,
  "sweep": {"points": 66, "domains": 4, "wall_seconds_1": 7.017165,
            "wall_seconds_n": 2.5, "speedup": 2.807, "identical": true},
  "load": {"seed": 1, "slots": 8, "points": []},
  "resilience": {"seed": 1, "slots": 8, "slo_bound": 2000000,
                 "points": [{"policy": "tagged", "fault_rate": 1e-05,
                             "rate": 0.1, "slo_attainment": 0.9917}]},
  "backend": {"geomean_speedup": 1.208,
              "pairs": [{"workload": "fib_rec", "speedup": 1.384}]},
  "x_future": {"nested": [1, 2.5, null, "text \"quoted\""],
               "big": 123456789.5, "tiny": 3.0000000000000004e-300},
  "samples": [{"workload": "fib_rec", "strategy": "dtb",
               "backend": "decode", "sim_cycles_per_sec": 61234567.8}]
}
|}

let test_update_keeps_other_sections () =
  with_doc full_doc (fun path ->
      let before = fields path in
      let load =
        {
          Perf.load_seed = 7;
          load_slots = 4;
          load_points =
            [
              {
                Perf.lp_policy = "flush";
                lp_rate = 12.;
                lp_quantum = 64;
                lp_jobs = 100;
                lp_completed = 99;
                lp_shed = 1;
                lp_throughput = 9.5;
                lp_p50 = 1000;
                lp_p95 = 2000;
                lp_p99 = 3000;
                lp_mean_slowdown = 2.25;
              };
            ];
        }
      in
      Perf.update_json ~load ~path ();
      let after = fields path in
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (key ^ " passes through unchanged")
            true
            (List.assoc_opt key before = List.assoc_opt key after))
        [ "sweep"; "resilience"; "backend"; "x_future"; "samples" ];
      match List.assoc_opt "load" after with
      | Some (Perf.J_obj l) ->
          Alcotest.(check bool) "load replaced" true
            (List.assoc_opt "seed" l = Some (Perf.J_num 7.)
            && List.assoc_opt "slots" l = Some (Perf.J_num 4.))
      | _ -> Alcotest.fail "load section missing")

let test_committed_document_round_trips () =
  with_doc (read "../BENCH_simulator.json") (fun path ->
      let before = Perf.parse_json (read path) in
      Perf.update_json ~path ();
      Alcotest.(check bool) "no-op update parses back equal" true
        (Perf.parse_json (read path) = before))

let test_samples_replace_backend () =
  with_doc (read "../BENCH_simulator.json") (fun path ->
      Alcotest.(check bool) "the committed document has a backend section"
        true
        (List.mem_assoc "backend" (fields path));
      let decode_only =
        [
          sample ~workload:"fact_iter" ~backend:"decode" ~us:900.;
          sample ~workload:"fib_rec" ~backend:"decode" ~us:1200.;
        ]
      in
      Perf.update_json ~samples:decode_only ~path ();
      let after = fields path in
      Alcotest.(check bool) "stale backend section removed" false
        (List.mem_assoc "backend" after);
      (match List.assoc_opt "samples" after with
      | Some (Perf.J_arr s) ->
          Alcotest.(check int) "samples replaced" 2 (List.length s)
      | _ -> Alcotest.fail "samples missing");
      (* pairing the samples across both backends brings it back *)
      Perf.update_json
        ~samples:
          (sample ~workload:"fact_iter" ~backend:"threaded" ~us:600.
          :: decode_only)
        ~path ();
      Alcotest.(check bool) "backend section derived from paired samples"
        true
        (List.mem_assoc "backend" (fields path)))

let suite =
  ( "perf",
    [
      Alcotest.test_case "update keeps every other section" `Quick
        test_update_keeps_other_sections;
      Alcotest.test_case "committed document round-trips" `Quick
        test_committed_document_round_trips;
      Alcotest.test_case "samples replace the backend section" `Quick
        test_samples_replace_backend;
    ] )
