(* Derived products live as long as the value they are built from: the
   per-value cache itself, reuse for every caller that holds the same
   program or encoding (generators, solo runs, closure tables, across
   domains too), and a retained heap that stays flat when every run
   brings a fresh program. *)

module Derived = Uhm_derived.Derived
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Sweep = Uhm_core.Sweep
module Machine = Uhm_machine.Machine
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite
module Resilient = Uhm_fault.Resilient

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let compile name = Suite.compile (Suite.find name)

(* -- The cache ------------------------------------------------------------- *)

let test_cache_builds_once () =
  let c = Derived.create () in
  let k : (int, string) Derived.key = Derived.key () in
  let other : (int, string) Derived.key = Derived.key () in
  let builds = ref 0 in
  let get key p =
    Derived.get c key p (fun () ->
        incr builds;
        Printf.sprintf "%d/%d" p !builds)
  in
  let a = get k 1 in
  check_bool "a hit returns the cached product" true (get k 1 == a);
  check_int "one build" 1 !builds;
  Alcotest.(check string) "other parameters build apart" "2/2" (get k 2);
  Alcotest.(check string) "another key builds apart" "1/3" (get other 1);
  check_bool "earlier products survive later bindings" true (get k 1 == a);
  check_int "three builds" 3 !builds

(* Domains that miss together each build, but all of them end up with
   the one product that was published first. *)
let test_cache_one_copy_across_domains () =
  let c = Derived.create () in
  let k : (unit, int ref) Derived.key = Derived.key () in
  let got =
    Sweep.map ~domains:4
      (fun _ -> Derived.get c k () (fun () -> ref 0))
      (List.init 32 Fun.id)
  in
  let first = List.hd got in
  check_bool "one shared product" true (List.for_all (fun r -> r == first) got)

(* -- Reuse pins ------------------------------------------------------------ *)

(* A second run of the same encoding builds no generator: its machine runs
   the very host program the first run's machine did. *)
let test_second_run_builds_nothing () =
  let encoded = Codec.encode Kind.Huffman (compile "gcd") in
  List.iter
    (fun (label, strategy) ->
      let program_of () =
        let seen = ref None in
        let runner m =
          seen := Some (Machine.program m);
          Machine.run m
        in
        ignore (U.run_encoded ~runner ~strategy encoded);
        Option.get !seen
      in
      let first = program_of () in
      check_bool (label ^ ": same generator product") true
        (program_of () == first))
    [
      ("interp", U.Interp);
      ("dtb", U.Dtb_strategy Dtb.paper_config);
      ("blocks", U.Dtb_blocks (Dtb.paper_config, 4));
    ]

let test_second_run_of_program_builds_nothing () =
  let p = compile "gcd" in
  List.iter
    (fun (label, strategy) ->
      let program_of () =
        let seen = ref None in
        let runner m =
          seen := Some (Machine.program m);
          Machine.run m
        in
        ignore (U.run ~runner ~strategy ~kind:Kind.Huffman p);
        Option.get !seen
      in
      let first = program_of () in
      check_bool (label ^ ": same product") true (program_of () == first))
    [
      ("interp (encoding reused)", U.Interp);
      ("der", U.Der U.Der_level1);
      ("psder", U.Psder_static);
    ]

(* A second solo run of the same encoding simulates nothing: it is the
   first one's record. *)
let test_second_solo_simulates_nothing () =
  let encoded = Codec.encode Kind.Huffman (compile "fact_iter") in
  let first = Resilient.solo ~config:Dtb.paper_config encoded in
  check_bool "same record" true
    (Resilient.solo ~config:Dtb.paper_config encoded == first);
  check_bool "the backend is not in the key" true
    (Resilient.solo ~backend:`Threaded ~config:Dtb.paper_config encoded
    == first);
  let small = { Dtb.paper_config with Dtb.sets = 16 } in
  check_bool "other settings run apart" true
    (Resilient.solo ~config:small encoded != first)

(* -- Shared products across domains ---------------------------------------- *)

(* Encodings shared by every worker: generators, solo runs and threaded
   closure tables are now built once and shared across domains instead
   of copied per domain; results must not depend on the domain count. *)
let test_shared_across_domains () =
  let encodings =
    List.map
      (fun n -> Codec.encode Kind.Huffman (compile n))
      [ "fact_iter"; "gcd"; "string_out" ]
  in
  let cells =
    List.concat_map
      (fun e ->
        List.map
          (fun s -> (e, s))
          [ U.Interp; U.Dtb_strategy Dtb.paper_config; U.Interp;
            U.Dtb_strategy Dtb.paper_config ])
      encodings
  in
  let sweep domains =
    Sweep.map ~domains
      (fun (e, strategy) ->
        let r = U.run_encoded ~backend:`Threaded ~strategy e in
        let solo =
          Resilient.solo ~backend:`Threaded ~config:Dtb.paper_config e
        in
        (r.U.status, r.U.output, r.U.cycles, r.U.machine_stats,
         solo.Resilient.sr_cycles))
      cells
  in
  let one = sweep 1 and four = sweep 4 in
  check_bool "identical at 1 and 4 domains" true (one = four)

(* -- Retained heap --------------------------------------------------------- *)

(* Every run brings a fresh program, as a cold [uhmc run] does: what a
   run builds must go with its program, so the live heap after 200 runs
   stays within a quarter of the live heap after 16. *)
let test_retained_heap_flat () =
  let programs = [ "fact_iter"; "gcd"; "string_out"; "flat_straightline" ] in
  let strategies =
    [ U.Interp; U.Dtb_strategy Dtb.paper_config; U.Der U.Der_level1 ]
  in
  let cells =
    List.concat_map (fun n -> List.map (fun s -> (Suite.find n, s)) strategies)
      programs
    |> Array.of_list
  in
  let halted = ref 0 in
  let run i =
    let entry, strategy = cells.(i mod Array.length cells) in
    let r = U.run ~strategy ~kind:Kind.Huffman (Suite.compile entry) in
    if r.U.status = Machine.Halted then incr halted
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for i = 0 to 15 do run i done;
  let at16 = live () in
  for i = 16 to 199 do run i done;
  let at200 = live () in
  check_int "every run halted" 200 !halted;
  let ratio = float_of_int at200 /. float_of_int at16 in
  Printf.printf "live words: %d after 16 runs, %d after 200 (x%.2f)\n" at16
    at200 ratio;
  check_bool
    (Printf.sprintf "live words x%.2f <= x1.25 from 16 to 200 runs" ratio)
    true (ratio <= 1.25)

let suite =
  ( "derived",
    [
      Alcotest.test_case "a product is built once per key and parameters"
        `Quick test_cache_builds_once;
      Alcotest.test_case "one product across domains" `Quick
        test_cache_one_copy_across_domains;
      Alcotest.test_case "a second run of an encoding builds no generator"
        `Quick test_second_run_builds_nothing;
      Alcotest.test_case "a second run of a program builds nothing" `Quick
        test_second_run_of_program_builds_nothing;
      Alcotest.test_case "a second solo run simulates nothing" `Quick
        test_second_solo_simulates_nothing;
      Alcotest.test_case "shared products, threaded, 1 vs 4 domains" `Slow
        test_shared_across_domains;
      Alcotest.test_case "retained heap stays flat over fresh programs" `Slow
        test_retained_heap_flat;
    ] )
