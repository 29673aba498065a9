(* Tests for the benchmark's own arithmetic and for its op functions:
   percentiles against a sort oracle, quartiles against Python's
   statistics.quantiles, self-time clipping, fingerprint judging, and one
   op of every workload checked against the committed fingerprints. *)

module Ops = Uhmbench_ops.Ops
module Span = Uhmbench_ops.Span
module Stats = Uhmbench_ops.Stats

let expected_dir = "../expected"

let test_nearest_rank () =
  let g = Random.State.make [| 11 |] in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int g 300 in
    let a = Array.init n (fun _ -> Random.State.int g 1_000_000) in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    List.iter
      (fun p ->
        let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
        Alcotest.(check int)
          (Printf.sprintf "p%g of %d" p n)
          sorted.(max 1 rank - 1)
          (Stats.nearest_rank a ~p))
      [ 50.; 90. ]
  done

(* values printed by Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let check data (q1, q2, q3) =
    let a, b, c = Stats.quartiles data in
    Alcotest.(check (list (float 1e-12))) "quartiles" [ q1; q2; q3 ] [ a; b; c ]
  in
  check [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] (2.75, 5.5, 8.25);
  check [| 1.; 2. |] (0.75, 1.5, 2.25);
  check [| 5.; 1.; 4. |] (1.0, 4.0, 5.0);
  check [| 3.5; 1.25; 9.0; 2.0; 7.75; 6.5; 4.0 |] (2.0, 4.0, 7.75);
  Alcotest.(check (float 1e-12)) "median" 5.5
    (Stats.median [| 10.; 1.; 9.; 2.; 8.; 3.; 7.; 4.; 6.; 5. |])

let span id ?(parent = -1) name start_ns stop_ns =
  { Span.id; name; op = 0; parent; start_ns; stop_ns }

(* Children that overlap each other or stick out of their parent are
   counted once, and only inside the parent. *)
let test_self_time_clipping () =
  Alcotest.(check int) "union, clipped" 60
    (Span.covered ~lo:0 ~hi:100 [ (10, 40); (30, 60); (90, 120) ]);
  let t = Span.create () in
  t.Span.spans <-
    [ span 0 "op" 0 100; span 1 ~parent:0 "a" 10 40; span 2 ~parent:0 "b" 30 60;
      span 3 ~parent:0 "c" 90 120 ];
  let self name =
    List.assoc name
      (List.map (fun (s, self) -> (s.Span.name, self)) (Span.self_times t))
  in
  Alcotest.(check int) "parent self" 40 (self "op");
  Alcotest.(check int) "child kept whole" 30 (self "a")

(* Properly nested spans and aggregates partition their roots exactly. *)
let test_self_time_sums () =
  let t = Span.create () in
  for op = 0 to 4 do
    Span.set_op t op;
    Span.with_span t "op" (fun () ->
        Span.with_span t "x" (fun () ->
            Span.with_span t "y" ignore;
            Span.add_agg t ~name:"z" ~count:1 ~ns:0);
        Span.with_span t "w" ignore)
  done;
  let layers, roots = Span.layer_table t in
  Alcotest.(check int) "self times sum to the roots" roots
    (List.fold_left (fun acc l -> acc + l.Span.l_self_ns) 0 layers)

let setup ?(traced = false) workload =
  let ctx = Ops.new_ctx ~traced in
  (ctx, Ops.setup ctx ~expected_dir workload ~seed:1)

(* the first op of the seed-1 order that runs [key] *)
let op_for st key =
  match st.Ops.body with
  | `Run r ->
      let rec find k =
        let prog, _, mode = Ops.run_item r (Ops.item st k) in
        if Ops.program_name prog ^ "/" ^ Ops.mode_name mode = key then k else find (k + 1)
      in
      find 0
  | `Serve _ -> invalid_arg "op_for"

let check_ok what (s : Ops.sample) =
  Alcotest.(check (option string)) what None s.Ops.failure;
  Alcotest.(check bool) (what ^ " has a fingerprint") true (s.Ops.fingerprint <> "")

let test_fingerprint_change_fails () =
  let ctx, st = setup Ops.Run_decode in
  let k = op_for st "fact_iter/dtb" in
  check_ok "committed fingerprint" (Ops.attempt ctx st k);
  let expected = Hashtbl.copy st.Ops.expected in
  let fp = Hashtbl.find expected "fact_iter/dtb" in
  let i = String.index fp ' ' in
  Hashtbl.replace expected "fact_iter/dtb"
    (string_of_int (int_of_string (String.sub fp 0 i) + 1)
    ^ String.sub fp i (String.length fp - i));
  let s = Ops.attempt ctx { st with Ops.expected } k in
  Alcotest.(check bool) "one cycle off fails the op" true (s.Ops.failure <> None)

let test_run_ops () =
  let ctx, st = setup Ops.Run_decode in
  check_ok "run-decode ftn_pascal/interp" (Ops.attempt ctx st (op_for st "ftn_pascal/interp"));
  (* the traced DTB path must simulate exactly what the plain run does *)
  let ctx, st = setup ~traced:true Ops.Run_threaded in
  check_ok "traced run-threaded ftn_pascal/dtb"
    (Ops.attempt ctx st (op_for st "ftn_pascal/dtb"));
  let lookups =
    List.fold_left (fun acc a -> acc + a.Span.a_count) 0
      (List.filter (fun a -> a.Span.a_name = "dtb.lookup") ctx.Ops.spans.Span.aggs)
  in
  Alcotest.(check int) "one timed lookup per INTERP"
    (int_of_float (Ops.counter ctx "machine.interp_count"))
    lookups

let test_serve_ops () =
  List.iter
    (fun w ->
      let ctx, st = setup w in
      Alcotest.(check int) "every episode has a committed fingerprint"
        Ops.library_episodes (Hashtbl.length st.Ops.expected);
      check_ok (Ops.workload_name w ^ " episode 0") (Ops.attempt ctx st 0))
    [ Ops.Serve_load; Ops.Serve_chaos ]

let () =
  Alcotest.run "uhmbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest rank vs sort" `Quick test_nearest_rank;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles ] );
      ( "spans",
        [ Alcotest.test_case "self time clips children" `Quick test_self_time_clipping;
          Alcotest.test_case "self times sum to roots" `Quick test_self_time_sums ] );
      ( "ops",
        [ Alcotest.test_case "1-cycle change fails" `Quick test_fingerprint_change_fails;
          Alcotest.test_case "run-* ops" `Quick test_run_ops;
          Alcotest.test_case "serve-* ops" `Quick test_serve_ops ] ) ]
