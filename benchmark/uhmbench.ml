(* uhmbench — host-time benchmark of the universal host machine.

     uhmbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     uhmbench --workload W --record FILE

   One closed-loop client on one domain: each op starts when the previous
   one returns.  With --trace 0 the last stdout line is a JSON object
   carrying the end-to-end metrics; with --trace 1 every pass runs twice,
   untraced and traced, the line carries the per-layer metrics, and the
   Chrome trace and self-time table go to benchmark/out/.  Fingerprints
   are read from benchmark/expected/.
   --record runs one pass over the workload's library and writes every
   op's fingerprint instead of measuring.
   Exits 1 when any op fails its oracle or fingerprint check, 2 on bad
   arguments or a failed set-up. *)

module Ops = Uhmbench_ops.Ops
module Span = Uhmbench_ops.Span
module Stats = Uhmbench_ops.Stats

(* Set-up is repeated and its median reported, so that one slow set-up
   does not read as a regression. *)
let setup_repeats = 9

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("uhmbench: " ^ msg);
      exit 2)
    fmt

(* -- JSON output ------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit the double carries; non-finite values are not JSON *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_arr items = "[" ^ String.concat ", " items ^ "]"

let metrics_json metrics =
  json_obj
    (List.map
       (fun (name, unit, v) ->
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       metrics)

(* -- Host ----------------------------------------------------------------------- *)

(* VmHWM: the process's peak resident set, in kB. *)
let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" float_of_int
        | Some _ -> scan ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let host_json () =
  json_obj
    [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("os_type", json_string Sys.os_type);
      ("word_size", string_of_int Sys.word_size) ]

(* -- Phases ------------------------------------------------------------------ *)

type phase = {
  ctx : Ops.ctx;
  mutable samples : Ops.sample list;  (* newest first while running *)
  mutable pass_ns : int list;         (* wall time of each pass *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let wall_ns ph = List.fold_left ( + ) 0 ph.pass_ns

(* p90 needs ten samples beyond it *)
let min_ops = 100

(* Run whole passes until the pass boundary nearest to [seconds], and at
   least [min_ops] ops.  Each pass runs once in every context, back to
   back and in alternating order, so that a traced pass and its untraced
   twin meet the same host conditions and neither always runs first. *)
let run_passes ctxs st ~seconds =
  let phases =
    List.map
      (fun ctx -> { ctx; samples = []; pass_ns = []; minor_words = 0.; major_collections = 0 })
      ctxs
  in
  let per = st.Ops.items in
  Gc.compact ();
  let t0 = Span.now_ns () in
  let pass = ref 0 in
  let more () =
    let elapsed = Span.now_ns () - t0 in
    !pass * per < min_ops
    || float_of_int (elapsed + (elapsed / !pass / 2)) < seconds *. 1e9
  in
  while more () do
    List.iter
      (fun ph ->
        let gc0 = Gc.quick_stat () and p0 = Span.now_ns () in
        for k = !pass * per to ((!pass + 1) * per) - 1 do
          ph.samples <- Ops.attempt ph.ctx st k :: ph.samples
        done;
        ph.pass_ns <- (Span.now_ns () - p0) :: ph.pass_ns;
        let gc1 = Gc.quick_stat () in
        ph.minor_words <- ph.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
        ph.major_collections <-
          ph.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections)
      (if !pass mod 2 = 0 then phases else List.rev phases);
    incr pass
  done;
  List.iter
    (fun ph ->
      ph.samples <- List.rev ph.samples;
      ph.pass_ns <- List.rev ph.pass_ns)
    phases;
  phases

let failures ph = List.filter (fun (s : Ops.sample) -> s.Ops.failure <> None) ph.samples

(* -- Metrics ------------------------------------------------------------------ *)

(* The throughput metrics are medians over passes: every pass runs the
   same ops, so a burst of host contention moves one pass, not the run. *)
let end_to_end ~setup_s ~per ph =
  let ns = Array.of_list (List.map (fun (s : Ops.sample) -> s.Ops.ns) ph.samples) in
  let per_pass f =
    Array.of_list
      (List.mapi
         (fun pass wall ->
           let jobs, cycles =
             List.fold_left
               (fun (j, c) (s : Ops.sample) ->
                 if s.Ops.op / per = pass then (j + s.Ops.jobs, c + s.Ops.sim_cycles)
                 else (j, c))
               (0, 0) ph.samples
           in
           f (float_of_int wall) (float_of_int jobs) (float_of_int cycles))
         ph.pass_ns)
  in
  [ ("setup_s", "s", setup_s);
    ("op_ms_p50", "ms", float_of_int (Stats.nearest_rank ns ~p:50.) /. 1e6);
    ("op_ms_p90", "ms", float_of_int (Stats.nearest_rank ns ~p:90.) /. 1e6);
    ("host_us_per_job", "us",
     Stats.median (per_pass (fun wall jobs _ -> wall /. 1e3 /. jobs)));
    ("sim_mcycles_per_s", "Mcycles/s",
     Stats.median (per_pass (fun wall _ cycles -> cycles /. (wall /. 1e3))));
    ("peak_rss_mb", "MB", peak_rss_kb () /. 1024.) ]

(* Total inclusive duration and count of the spans named [name]. *)
let span_total ctx name =
  List.fold_left
    (fun (n, ns) (s : Span.span) ->
      if s.Span.name = name then (n + 1, ns + (s.Span.stop_ns - s.Span.start_ns))
      else (n, ns))
    (0, 0) (Span.spans ctx.Ops.spans)

let agg_total ctx name =
  List.fold_left
    (fun (n, ns) (a : Span.agg) ->
      if a.Span.a_name = name then (n + a.Span.a_count, ns + a.Span.a_ns) else (n, ns))
    (0, 0) ctx.Ops.spans.Span.aggs

(* [num / den] from the traced phase, or from set-up when the phase never
   exercised the layer (serve-* ops compile, encode and run their pool's
   solo runs only in set-up). *)
let per_layer ~workload ~setup ~untraced ~traced_ph =
  let traced = traced_ph.ctx in
  let ratio ?(scale = 1.) f =
    let from ctx = let num, den = f ctx in if den > 0. then Some (scale *. num /. den) else None in
    match from traced with
    | Some v -> v
    | None -> Option.value ~default:0. (from setup)
  in
  let c = Ops.counter in
  let spans name ctx = let n, ns = span_total ctx name in (float_of_int ns, float_of_int n) in
  let aggs name ctx = let n, ns = agg_total ctx name in (float_of_int ns, float_of_int n) in
  let layers_of ctx = fst (Span.layer_table ctx.Ops.spans) in
  let self name ctx =
    match Span.find_layer (layers_of ctx) name with
    | Some l -> (float_of_int l.Span.l_self_ns, float_of_int l.Span.l_count)
    | None -> (0., 0.)
  in
  let per_run k den ctx = (c ctx k, c ctx den) in
  let episodes k = ratio (per_run k "serve.episodes") in
  let exec_layer = match workload with Ops.Serve_load | Ops.Serve_chaos -> "serve" | _ -> "execute" in
  let ops = float_of_int (List.length traced_ph.samples) in
  [ ("compile.us", "us", ratio ~scale:1e-3 (spans "compile"));
    ("compile.dir_instrs", "count", ratio (per_run "compile.dir_instrs" "compile.calls"));
    ("encode.us", "us", ratio ~scale:1e-3 (spans "encode"));
    ("encode.bits_per_instr", "bits/instr", ratio (per_run "encode.bits" "encode.instrs"));
    ("dir_ref.us", "us", ratio ~scale:1e-3 (spans "dir_ref"));
    ("dir_ref.steps", "count", ratio (per_run "dir_ref.steps" "dir_ref.calls"));
    ("prepare.us", "us", ratio ~scale:1e-3 (self "uhm.run"));
    ("execute.us", "us", ratio ~scale:1e-3 (spans "execute"));
    ("machine.sim_cycles", "count", ratio (per_run "machine.sim_cycles" "machine.runs"));
    ("machine.host_instrs", "count", ratio (per_run "machine.host_instrs" "machine.runs"));
    ("machine.short_instrs", "count", ratio (per_run "machine.short_instrs" "machine.runs"));
    ("machine.interp_count", "count", ratio (per_run "machine.interp_count" "machine.runs"));
    ("machine.ns_per_instr", "ns",
     ratio (fun ctx -> (fst (spans "execute" ctx), c ctx "machine.host_instrs")));
    ("dtb.hits", "count", ratio (per_run "dtb.hits" "dtb.runs"));
    ("dtb.misses", "count", ratio (per_run "dtb.misses" "dtb.runs"));
    ("dtb.evictions", "count", ratio (per_run "dtb.evictions" "dtb.runs"));
    ("dtb.hit_ratio", "ratio",
     ratio (fun ctx -> (c ctx "dtb.hits", c ctx "dtb.hits" +. c ctx "dtb.misses")));
    ("dtb.emitted_words", "count", ratio (per_run "dtb.emitted_words" "dtb.runs"));
    ("dtb.lookup_ns", "ns", ratio (aggs "dtb.lookup"));
    ("dtb.translate_us", "us", ratio ~scale:1e-3 (aggs "dtb.translate"));
    ("exec.ns_per_sim_cycle", "ns/cycle",
     ratio (fun ctx -> (fst (spans exec_layer ctx), c ctx "exec.sim_cycles")));
    ("serve.switches", "count", episodes "serve.switches");
    ("serve.flushes", "count", episodes "serve.flushes");
    ("serve.asid_evictions", "count", episodes "serve.asid_evictions");
    ("serve.translations", "count", episodes "serve.translations");
    ("serve.dtb_hit_ratio", "ratio", episodes "serve.dtb_hit_ratio");
    ("serve.max_queue_depth", "count", episodes "serve.max_queue_depth");
    ("trace.recorded", "count", episodes "trace.recorded");
    ("trace.dropped", "count", episodes "trace.dropped");
    ("chaos.injected", "count", episodes "chaos.injected");
    ("chaos.detected", "count", episodes "chaos.detected");
    ("chaos.detect_ratio", "ratio",
     ratio (fun ctx -> (c ctx "chaos.detected", c ctx "chaos.injected")));
    ("chaos.recovery_retries", "count", episodes "chaos.recovery_retries");
    ("chaos.rollbacks", "count", episodes "chaos.rollbacks");
    ("chaos.downgrades", "count", episodes "chaos.downgrades");
    ("chaos.job_retries", "count", episodes "chaos.job_retries");
    ("chaos.failed_jobs", "count", episodes "chaos.failed_jobs");
    ("chaos.attempts_per_job", "count",
     ratio (fun ctx ->
         ( c ctx "chaos.attempts",
           c ctx "serve.episodes" *. float_of_int (Ops.jobs_per_op workload) )));
    ("gc.minor_words_per_op", "words", traced_ph.minor_words /. ops);
    ("gc.major_per_op", "count", float_of_int traced_ph.major_collections /. ops);
    ("trace.overhead_pct", "%",
     100. *. ((float_of_int (wall_ns traced_ph) /. float_of_int (wall_ns untraced)) -. 1.)) ]

let layer_table_text title ctx =
  let layers, roots = Span.layer_table ctx.Ops.spans in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n%-16s %10s %14s %8s\n" title "layer" "calls" "self ms" "share";
  List.iter
    (fun l ->
      Printf.bprintf b "%-16s %10d %14.3f %7.2f%%\n" l.Span.l_name l.Span.l_count
        (float_of_int l.Span.l_self_ns /. 1e6)
        (100. *. float_of_int l.Span.l_self_ns /. float_of_int (max 1 roots)))
    layers;
  Printf.bprintf b "%-16s %10s %14.3f\n" "total" "" (float_of_int roots /. 1e6);
  Buffer.contents b

let self_times_exact ctx =
  let layers, roots = Span.layer_table ctx.Ops.spans in
  List.fold_left (fun acc l -> acc + l.Span.l_self_ns) 0 layers = roots

(* -- Main ------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "" and trace_dir = "benchmark/out" in
  let record = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "W  one of " ^ String.concat ", " (List.map fst Ops.workloads));
      ("--seed", Arg.Set_int seed, "N  orders the ops");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE  also write every metric and sample as JSON");
      ("--record", Arg.Set_string record, "FILE  write the fingerprint of every op") ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "uhmbench [options]";
  let w =
    match List.assoc_opt !workload Ops.workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  let traced = !trace = 1 in
  let setup_ctx = Ops.new_ctx ~traced in
  let setup () =
    try Ops.setup setup_ctx ~expected_dir:"benchmark/expected" w ~seed:!seed
    with e -> die "set-up failed: %s" (Printexc.to_string e)
  in
  if !record <> "" then begin
    let st = setup () in
    let ctx = Ops.new_ctx ~traced:false in
    let st = { st with Ops.expected = Hashtbl.create 1; strict = false } in
    let samples = List.init (st.Ops.items) (Ops.attempt ctx st) in
    let bad = List.filter (fun (s : Ops.sample) -> s.Ops.failure <> None) samples in
    List.iter
      (fun (s : Ops.sample) ->
        Printf.eprintf "uhmbench: op %d (%s): %s\n" s.Ops.op s.Ops.key
          (Option.get s.Ops.failure))
      bad;
    Out_channel.with_open_text !record (fun oc ->
        Printf.fprintf oc
          "# written by: uhmbench --workload %s --record FILE\n\
           # key cycles... (see benchmark/README.md)\n"
          !workload;
        List.iter
          (fun (s : Ops.sample) -> Printf.fprintf oc "%s %s\n" s.Ops.key s.Ops.fingerprint)
          (List.sort (fun (a : Ops.sample) b -> compare a.Ops.key b.Ops.key) samples));
    exit (if bad = [] then 0 else 1)
  end;
  (* Set-up, several times: compile the pool, compute the oracles and, on
     serve-*, fill the memos with one untimed warm-up op. *)
  let setup_times, st =
    let rec go i acc =
      let t0 = Span.now_ns () in
      let st = setup () in
      (match st.Ops.body with
      | `Serve _ -> (
          match (Ops.attempt ~item:0 (Ops.new_ctx ~traced:false) st (-1)).Ops.failure with
          | Some f -> die "warm-up op failed: %s" f
          | None -> ())
      | `Run _ -> ());
      let dt = float_of_int (Span.now_ns () - t0) /. 1e9 in
      if i + 1 < setup_repeats then go (i + 1) (dt :: acc) else (List.rev (dt :: acc), st)
    in
    go 0 []
  in
  let setup_s = Stats.median (Array.of_list setup_times) in
  let first, traced_phase =
    match
      run_passes
        (Ops.new_ctx ~traced:false :: (if traced then [ Ops.new_ctx ~traced:true ] else []))
        st ~seconds:!seconds
    with
    | [ untraced ] -> (untraced, None)
    | [ untraced; ph ] -> (untraced, Some ph)
    | _ -> assert false
  in
  (* a traced op must simulate exactly what its untraced twin did *)
  let trace_mismatches =
    match traced_phase with
    | None -> []
    | Some ph ->
        List.filter_map
          (fun ((a : Ops.sample), (b : Ops.sample)) ->
            if a.Ops.fingerprint <> b.Ops.fingerprint then
              Some (b.Ops.op, b.Ops.key, "traced fingerprint differs from untraced")
            else None)
          (List.combine first.samples ph.samples)
  in
  let failed =
    List.map (fun (s : Ops.sample) -> (s.Ops.op, s.Ops.key, Option.get s.Ops.failure))
      (failures first
      @ match traced_phase with Some ph -> failures ph | None -> [])
    @ trace_mismatches
  in
  let failed_ops = List.sort_uniq compare (List.map (fun (op, _, _) -> op) failed) in
  let exact =
    match traced_phase with
    | Some ph -> self_times_exact ph.ctx && self_times_exact setup_ctx
    | None -> true
  in
  List.iteri
    (fun i (op, key, why) ->
      if i < 10 then Printf.eprintf "uhmbench: op %d (%s) failed: %s\n" op key why)
    failed;
  let metrics =
    match traced_phase with
    | None -> end_to_end ~setup_s ~per:(st.Ops.items) first
    | Some ph -> per_layer ~workload:w ~setup:setup_ctx ~untraced:first ~traced_ph:ph
  in
  let attempted = List.length first.samples in
  let correct = failed = [] && exact in
  if not exact then prerr_endline "uhmbench: self times do not sum to the op totals";
  (match traced_phase with
  | None -> ()
  | Some { ctx; _ } ->
      let base =
        Filename.concat trace_dir (Printf.sprintf "%s.seed%d" !workload !seed)
      in
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let table =
        layer_table_text "traced phase: self time per layer" ctx
        ^ "\n"
        ^ layer_table_text "set-up (all repeats): self time per layer" setup_ctx
      in
      prerr_string table;
      Out_channel.with_open_bin (base ^ ".selftime.txt") (fun oc ->
          output_string oc table);
      Out_channel.with_open_bin (base ^ ".trace.json") (fun oc ->
          output_string oc (Span.to_chrome ctx.Ops.spans)));
  if !out <> "" then begin
    let sample_json (s : Ops.sample) =
      json_obj
        [ ("op", string_of_int s.Ops.op); ("key", json_string s.Ops.key);
          ("ms", json_float (float_of_int s.Ops.ns /. 1e6));
          ("jobs", string_of_int s.Ops.jobs);
          ("sim_cycles", string_of_int s.Ops.sim_cycles);
          ("fingerprint", json_string s.Ops.fingerprint) ]
    in
    let layers =
      match traced_phase with
      | None -> []
      | Some ph ->
          let layers, _ = Span.layer_table ph.ctx.Ops.spans in
          [ ("layers",
             json_arr
               (List.map
                  (fun l ->
                    json_obj
                      [ ("name", json_string l.Span.l_name);
                        ("calls", string_of_int l.Span.l_count);
                        ("self_ms", json_float (float_of_int l.Span.l_self_ns /. 1e6)) ])
                  layers)) ]
    in
    let doc =
      json_obj
        ([ ("workload", json_string !workload); ("seed", string_of_int !seed);
           ("seconds", json_float !seconds); ("trace", string_of_int !trace);
           ("host", host_json ()); ("correct", string_of_bool correct);
           ("attempted", string_of_int attempted);
           ("failed", string_of_int (List.length failed_ops));
           ("passes", string_of_int (List.length first.pass_ns));
           ("ops_per_pass", string_of_int (st.Ops.items));
           ("metrics", metrics_json metrics);
           ("setup_samples_s", json_arr (List.map json_float setup_times));
           ("samples", json_arr (List.map sample_json first.samples));
           ("failures",
            json_arr
              (List.map
                 (fun (op, key, why) ->
                   json_obj
                     [ ("op", string_of_int op); ("key", json_string key);
                       ("why", json_string why) ])
                 failed)) ]
        @ layers)
    in
    Out_channel.with_open_bin !out (fun oc -> output_string oc (doc ^ "\n"))
  end;
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int (List.length failed_ops));
         ("metrics", metrics_json metrics) ]);
  exit (if correct then 0 else 1)
