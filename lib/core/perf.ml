(* Host-side throughput measurement of the simulator itself.

   Where the rest of uhm_core measures *simulated* cycles, this module
   measures how fast the host machine chews through them: wall-clock time
   per run, simulated cycles per second, and host instructions per second
   for the representative workloads under each execution strategy.  The
   results feed BENCH_simulator.json so the repo carries a perf trajectory
   across PRs. *)

module Kind = Uhm_encoding.Kind
module Suite = Uhm_workload.Suite
module Table = Uhm_report.Table

type sample = {
  workload : string;
  strategy : string;
  backend : string;            (* "decode" | "threaded" *)
  encoding : string;
  runs : int;
  wall_seconds : float;        (* total over all runs *)
  sim_cycles : int;            (* per run (deterministic) *)
  host_instrs : int;           (* per run *)
  short_instrs : int;          (* per run *)
  dir_steps : int;             (* per run *)
  sim_cycles_per_sec : float;
  host_instrs_per_sec : float;
  wall_us_per_run : float;
}

let backend_name = function `Decode -> "decode" | `Threaded -> "threaded"

(* The paper's three machine organisations plus the fully-bound DER corner. *)
let strategies =
  [
    ("interp", Uhm.Interp);
    ("cached", Uhm.Cached 4096);
    ("dtb", Uhm.Dtb_strategy Dtb.paper_config);
    ("der", Uhm.Der Uhm.Der_level1);
  ]

(* One loop-dominated, one call-dominated, one low-locality program: the
   same representatives the bench tables use. *)
let default_workloads = [ "fact_iter"; "fib_rec"; "flat_straightline" ]

let kind = Kind.Huffman

let measure ?(min_runs = 5) ?(min_seconds = 0.2) ?(backend = `Decode)
    ~workload ~strategy_name ~strategy () =
  (* at least one timed run, so the rates are always finite *)
  let min_runs = max 1 min_runs in
  let p = Suite.compile (Suite.find workload) in
  (* the encoding and the generated code are cached on [p]: timed runs
     reuse what the warm-up built *)
  let run () = Uhm.run ~backend ~strategy ~kind p in
  (* one warm-up run, also the source of the per-run counters *)
  let r = run () in
  let stats = r.Uhm.machine_stats in
  let runs = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  while !runs < min_runs || elapsed () < min_seconds do
    ignore (Sys.opaque_identity (run ()));
    incr runs
  done;
  let wall = elapsed () in
  let per_sec count =
    float_of_int (count * !runs) /. (if wall > 0. then wall else epsilon_float)
  in
  {
    workload;
    strategy = strategy_name;
    backend = backend_name backend;
    encoding = Kind.name kind;
    runs = !runs;
    wall_seconds = wall;
    sim_cycles = r.Uhm.cycles;
    host_instrs = stats.Uhm_machine.Machine.host_instrs;
    short_instrs = stats.Uhm_machine.Machine.short_instrs;
    dir_steps = r.Uhm.dir_steps;
    sim_cycles_per_sec = per_sec r.Uhm.cycles;
    host_instrs_per_sec = per_sec stats.Uhm_machine.Machine.host_instrs;
    wall_us_per_run = 1e6 *. wall /. float_of_int !runs;
  }

let run_suite ?(workloads = default_workloads) ?min_runs ?min_seconds
    ?(backends = [ `Decode ]) ?(domains = 1) () =
  (* the sample grid goes through the sweep engine, but wall-clock
     sampling defaults to one domain: concurrent timed runs steal cycles
     from each other and would make the per-sample rates incomparable
     across commits.  Raise [domains] only to smoke-test the plumbing. *)
  let jobs =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun (strategy_name, strategy) ->
            List.map
              (fun backend -> (workload, strategy_name, strategy, backend))
              backends)
          strategies)
      workloads
  in
  Sweep.map ~domains
    (fun (workload, strategy_name, strategy, backend) ->
      measure ?min_runs ?min_seconds ~backend ~workload ~strategy_name
        ~strategy ())
    jobs

(* -- Backend comparison (schema v3's "backend" section) ---------------------- *)

type backend_pair = {
  bp_workload : string;
  bp_strategy : string;
  bp_decode_us : float;        (* wall_us_per_run, decode backend *)
  bp_threaded_us : float;      (* wall_us_per_run, threaded backend *)
  bp_speedup : float;          (* decode / threaded host wall time *)
}

let backend_pairs samples =
  List.filter_map
    (fun s ->
      if s.backend <> "decode" then None
      else
        match
          List.find_opt
            (fun s' ->
              s'.backend = "threaded" && s'.workload = s.workload
              && s'.strategy = s.strategy)
            samples
        with
        | None -> None
        | Some s' ->
            Some
              {
                bp_workload = s.workload;
                bp_strategy = s.strategy;
                bp_decode_us = s.wall_us_per_run;
                bp_threaded_us = s'.wall_us_per_run;
                bp_speedup =
                  (if s'.wall_us_per_run > 0. then
                     s.wall_us_per_run /. s'.wall_us_per_run
                   else 0.);
              })
    samples

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Host wall-clock only: the simulated cycle counts, traces and final
   states of the two backends are differentially pinned equal by
   test/test_backend.ml, so the speedups are free of semantic drift. *)
let print_report samples =
  let t =
    Table.create
      ~columns:
        [ ("workload/strategy", Table.Left); ("backend", Table.Left);
          ("runs", Table.Right); ("us/run", Table.Right);
          ("sim cycles/s", Table.Right); ("host instrs/s", Table.Right) ]
      ()
  in
  List.iter
    (fun s ->
      Table.add_row t
        [ Printf.sprintf "%s/%s" s.workload s.strategy; s.backend;
          Table.cell_int s.runs;
          Table.cell_float s.wall_us_per_run;
          Printf.sprintf "%.2fM" (s.sim_cycles_per_sec /. 1e6);
          Printf.sprintf "%.2fM" (s.host_instrs_per_sec /. 1e6) ])
    samples;
  Table.print t;
  match backend_pairs samples with
  | [] -> ()
  | pairs ->
      List.iter
        (fun p ->
          Printf.printf "backend speedup %s/%s: %.2fx (%.1f -> %.1f us/run)\n"
            p.bp_workload p.bp_strategy p.bp_speedup p.bp_decode_us
            p.bp_threaded_us)
        pairs;
      Printf.printf "backend speedup geomean: %.2fx over %d pairs\n"
        (geomean (List.map (fun p -> p.bp_speedup) pairs))
        (List.length pairs)

(* -- The parallel-sweep benchmark ------------------------------------------- *)

type sweep_bench = {
  sweep_points : int;          (* grid points in the summary sweep *)
  sweep_domains : int;         (* domain count of the parallel run *)
  sweep_wall_1 : float;        (* seconds, best of [repeats], 1 domain *)
  sweep_wall_n : float;        (* seconds, best of [repeats], N domains *)
  sweep_speedup : float;       (* wall_1 / wall_n *)
  sweep_identical : bool;      (* 1-domain and N-domain results compared equal *)
}

let measure_sweep ?domains ?(repeats = 2) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Sweep.default_domains ()
  in
  let time_rows d =
    let t0 = Unix.gettimeofday () in
    let rows = Experiment.summary_rows ~domains:d () in
    (Unix.gettimeofday () -. t0, rows)
  in
  let best d =
    let rec go best_wall rows n =
      if n = 0 then (best_wall, rows)
      else
        let wall, r = time_rows d in
        go (min best_wall wall) r (n - 1)
    in
    let wall, rows = time_rows d in
    go wall rows (max 0 (repeats - 1))
  in
  let wall_1, rows_1 = best 1 in
  let wall_n, rows_n = best domains in
  {
    sweep_points = 3 * List.length rows_1;  (* three strategies per row *)
    sweep_domains = domains;
    sweep_wall_1 = wall_1;
    sweep_wall_n = wall_n;
    sweep_speedup = (if wall_n > 0. then wall_1 /. wall_n else 0.);
    sweep_identical = rows_1 = rows_n;
  }

(* -- The open-arrival load section (schema v4) ------------------------------- *)

type load_point = {
  lp_policy : string;          (* "flush" | "tagged" | "partitioned" *)
  lp_rate : float;             (* offered load, jobs per million cycles *)
  lp_quantum : int;
  lp_jobs : int;               (* arrivals offered *)
  lp_completed : int;
  lp_shed : int;
  lp_throughput : float;       (* completions per million cycles *)
  lp_p50 : int;                (* sojourn percentiles, cycles *)
  lp_p95 : int;
  lp_p99 : int;
  lp_mean_slowdown : float;
}

type load_bench = {
  load_seed : int;
  load_slots : int;
  load_points : load_point list;
}

(* -- The fault-tolerant serving section (schema v5) -------------------------- *)

type resilience_point = {
  rp_policy : string;          (* "flush" | "tagged" | "partitioned" *)
  rp_fault_rate : float;       (* total per-step injection probability *)
  rp_rate : float;             (* offered load, jobs per million cycles *)
  rp_quantum : int;
  rp_jobs : int;               (* arrivals offered *)
  rp_completed : int;          (* verified clean completions *)
  rp_failed : int;             (* retries exhausted *)
  rp_shed : int;
  rp_slo_attainment : float;   (* met / completed, exact *)
  rp_goodput : float;          (* in-SLO completions per million cycles *)
  rp_injected : int;
  rp_detected : int;
  rp_job_retries : int;
  rp_p99 : int;                (* sojourn p99, cycles *)
  rp_p99_degradation : float;  (* p99 / same-column fault-free p99 *)
}

type resilience_bench = {
  res_seed : int;
  res_slots : int;
  res_slo : int;               (* the deadline bound, cycles *)
  res_points : resilience_point list;
}

(* -- Minimal JSON ----------------------------------------------------------- *)

(* A minimal recursive-descent JSON reader: just enough to read back the
   documents this module writes (and hand-edited variants of them).  Kept
   here rather than pulling in a JSON package — the repo is dependency-free
   beyond the compiler distribution. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Json_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; value)
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* BMP only; fine for our own ASCII output *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); J_arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); J_arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> J_str (string_lit ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | J_obj fields -> List.assoc_opt key fields
  | _ -> None

(* -- The BENCH document ----------------------------------------------------- *)

(* Writing goes through the same [json] tree the reader builds, so a
   section this binary did not measure, or does not even know, passes
   through an update as parsed. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
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

(* The shortest decimal that parses back to the same float: a number
   carried through an update round-trips exactly. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else
    let rec go digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits >= 17 || float_of_string s = f then s else go (digits + 1)
    in
    go 15

let print_block b indent opening closing item xs =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b (String.make (indent + 2) ' ');
      item x)
    xs;
  Printf.bprintf b "\n%s%c" (String.make indent ' ') closing

let rec print_json b indent = function
  | J_null -> Buffer.add_string b "null"
  | J_bool v -> Buffer.add_string b (string_of_bool v)
  | J_num f -> Buffer.add_string b (number_to_string f)
  | J_str s -> Printf.bprintf b "\"%s\"" (json_escape s)
  | J_arr [] -> Buffer.add_string b "[]"
  | J_obj [] -> Buffer.add_string b "{}"
  | J_arr items ->
      print_block b indent '[' ']' (print_json b (indent + 2)) items
  | J_obj fields ->
      print_block b indent '{' '}'
        (fun (k, v) ->
          Printf.bprintf b "\"%s\": " (json_escape k);
          print_json b (indent + 2) v)
        fields

let int n = J_num (float_of_int n)

(* rounded to [decimals] places, the precision each field is recorded at *)
let fixed decimals x =
  J_num (float_of_string (Printf.sprintf "%.*f" decimals x))

let sample_json s =
  J_obj
    [ ("workload", J_str s.workload); ("strategy", J_str s.strategy);
      ("backend", J_str s.backend); ("encoding", J_str s.encoding);
      ("runs", int s.runs); ("wall_seconds", fixed 6 s.wall_seconds);
      ("wall_us_per_run", fixed 2 s.wall_us_per_run);
      ("sim_cycles", int s.sim_cycles); ("host_instrs", int s.host_instrs);
      ("short_instrs", int s.short_instrs); ("dir_steps", int s.dir_steps);
      ("sim_cycles_per_sec", fixed 1 s.sim_cycles_per_sec);
      ("host_instrs_per_sec", fixed 1 s.host_instrs_per_sec) ]

let sweep_json s =
  J_obj
    [ ("points", int s.sweep_points); ("domains", int s.sweep_domains);
      ("wall_seconds_1", fixed 6 s.sweep_wall_1);
      ("wall_seconds_n", fixed 6 s.sweep_wall_n);
      ("speedup", fixed 3 s.sweep_speedup);
      ("identical", J_bool s.sweep_identical) ]

(* The "backend" section: per-(workload, strategy) host wall-time
   speedups of the threaded backend over decode, derived from the
   samples of the same document; [None] when no sample is paired. *)
let backend_json samples =
  match backend_pairs samples with
  | [] -> None
  | pairs ->
      let speedups =
        List.filter_map
          (fun p -> if p.bp_speedup > 0. then Some p.bp_speedup else None)
          pairs
      in
      Some
        (J_obj
           [ ("geomean_speedup", fixed 3 (geomean speedups));
             ( "pairs",
               J_arr
                 (List.map
                    (fun p ->
                      J_obj
                        [ ("workload", J_str p.bp_workload);
                          ("strategy", J_str p.bp_strategy);
                          ("decode_us_per_run", fixed 2 p.bp_decode_us);
                          ("threaded_us_per_run", fixed 2 p.bp_threaded_us);
                          ("speedup", fixed 3 p.bp_speedup) ])
                    pairs) ) ])

let load_json l =
  let point p =
    J_obj
      [ ("policy", J_str p.lp_policy); ("rate", J_num p.lp_rate);
        ("quantum", int p.lp_quantum); ("jobs", int p.lp_jobs);
        ("completed", int p.lp_completed); ("shed", int p.lp_shed);
        ("throughput_per_mcycle", fixed 3 p.lp_throughput);
        ("sojourn_p50", int p.lp_p50); ("sojourn_p95", int p.lp_p95);
        ("sojourn_p99", int p.lp_p99);
        ("mean_slowdown", fixed 3 p.lp_mean_slowdown) ]
  in
  J_obj
    [ ("seed", int l.load_seed); ("slots", int l.load_slots);
      ("points", J_arr (List.map point l.load_points)) ]

let resilience_json r =
  let point p =
    J_obj
      [ ("policy", J_str p.rp_policy); ("fault_rate", J_num p.rp_fault_rate);
        ("rate", J_num p.rp_rate); ("quantum", int p.rp_quantum);
        ("jobs", int p.rp_jobs); ("completed", int p.rp_completed);
        ("failed", int p.rp_failed); ("shed", int p.rp_shed);
        ("slo_attainment", fixed 4 p.rp_slo_attainment);
        ("goodput_per_mcycle", fixed 3 p.rp_goodput);
        ("injected", int p.rp_injected); ("detected", int p.rp_detected);
        ("job_retries", int p.rp_job_retries); ("sojourn_p99", int p.rp_p99);
        ("p99_degradation", fixed 3 p.rp_p99_degradation) ]
  in
  J_obj
    [ ("seed", int r.res_seed); ("slots", int r.res_slots);
      ("slo_bound", int r.res_slo);
      ("points", J_arr (List.map point r.res_points)) ]

let read_document ~path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse_json contents

let update_json ?samples ?sweep ?load ?resilience ~path () =
  let existing =
    if not (Sys.file_exists path) then []
    else
      match read_document ~path with
      | J_obj fields -> fields
      | _ -> raise (Json_error "the document is not a JSON object")
  in
  (* [key, None] removes the key; keys not listed are kept as parsed *)
  let section key to_json v =
    Option.to_list (Option.map (fun v -> (key, Some (to_json v))) v)
  in
  let replaced =
    section "sweep" sweep_json sweep
    @ section "load" load_json load
    @ section "resilience" resilience_json resilience
    @
    match samples with
    | None -> []
    | Some s ->
        [ ("backend", backend_json s);
          ("samples", Some (J_arr (List.map sample_json s))) ]
  in
  let replaced =
    if replaced = [] then []
    else
      [ ("schema", Some (J_str "uhm-bench-simulator/5"));
        ("generated_by", Some (J_str "bench/main.exe perf"));
        ("unix_time", Some (J_num (Unix.time ()))) ]
      @ replaced
  in
  let kept =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k replaced with
        | None -> Some (k, v)
        | Some v' -> Option.map (fun v' -> (k, v')) v')
      existing
  in
  let added =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k existing then None
        else Option.map (fun v -> (k, v)) v)
      replaced
  in
  let b = Buffer.create 65536 in
  print_json b 0 (J_obj (kept @ added));
  Buffer.add_char b '\n';
  (* write-then-rename: a crash mid-write cannot lose the sections this
     update carries over *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc b;
  close_out oc;
  Sys.rename tmp path


(* -- Baseline comparison (the CI perf gate) ------------------------------ *)

let baseline_rates_of_json doc =
  match member "samples" doc with
  | Some (J_arr samples) ->
      List.filter_map
        (fun sample ->
          (* schema v2 samples carry no backend field: they were all
             recorded on the decode backend *)
          let backend =
            match member "backend" sample with
            | Some (J_str b) -> b
            | _ -> "decode"
          in
          match
            ( member "workload" sample,
              member "strategy" sample,
              member "sim_cycles_per_sec" sample )
          with
          | Some (J_str w), Some (J_str s), Some (J_num r) when r > 0. ->
              Some ((w, s, backend), r)
          | _ -> None)
        samples
  | _ -> raise (Json_error "no \"samples\" array")

let read_baseline ~path = baseline_rates_of_json (read_document ~path)

type regression = {
  reg_workload : string;
  reg_strategy : string;
  reg_backend : string;
  reg_baseline_rel : float;
  reg_current_rel : float;
  reg_drop_pct : float;
}

let check_against_baseline ~max_regression_pct ~baseline samples =
  (* Absolute sim-cycles-per-second depends on the host the baseline was
     recorded on, so compare *relative* rates: each sample normalised by
     the geometric mean of its own file, over the keys the two files
     share.  A uniform host slowdown cancels; a single strategy getting
     slower relative to the others does not. *)
  let current =
    List.filter_map
      (fun s ->
        if s.sim_cycles_per_sec > 0. then
          Some ((s.workload, s.strategy, s.backend), s.sim_cycles_per_sec)
        else None)
      samples
  in
  let shared =
    List.filter_map
      (fun (key, b) ->
        match List.assoc_opt key current with
        | Some c -> Some (key, b, c)
        | None -> None)
      baseline
  in
  match shared with
  | [] ->
      Error
        "no overlapping (workload, strategy, backend) samples with the baseline"
  | _ ->
      let gb = geomean (List.map (fun (_, b, _) -> b) shared) in
      let gc = geomean (List.map (fun (_, _, c) -> c) shared) in
      let regressions =
        List.filter_map
          (fun ((w, s, bk), b, c) ->
            let rb = b /. gb and rc = c /. gc in
            let drop = (rb -. rc) /. rb *. 100. in
            if drop > max_regression_pct then
              Some
                {
                  reg_workload = w;
                  reg_strategy = s;
                  reg_backend = bk;
                  reg_baseline_rel = rb;
                  reg_current_rel = rc;
                  reg_drop_pct = drop;
                }
            else None)
          shared
      in
      Ok regressions
