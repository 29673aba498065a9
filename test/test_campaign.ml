(* Tests for the campaign journal and resume layer: journal round-trip,
   torn-line recovery, fingerprint safety, and the headline crash-safety
   property — truncating a journal anywhere and resuming reproduces the
   uninterrupted report byte-for-byte, at 1 and 4 domains. *)

module Journal = Uhm_campaign.Journal
module Campaign = Uhm_campaign.Campaign
module Sweep = Uhm_core.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uhm_test_journal_%d_%d.jsonl" (Unix.getpid ()) !counter)

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let header = { Journal.campaign = "test"; fingerprint = "f00d"; cells = 4 }

(* -- Journal round-trip ------------------------------------------------------ *)

let test_roundtrip () =
  with_temp (fun path ->
      let w = Journal.create ~path header in
      let payload i = Marshal.to_string (i, string_of_int i) [] in
      Journal.append w
        { Journal.cell = 0; attempts = 1; outcome = Journal.Ok_cell (payload 0) };
      Journal.append w
        { Journal.cell = 1; attempts = 3;
          outcome = Journal.Quarantined_cell "Failure(\"boom\")" };
      Journal.append w
        { Journal.cell = 2; attempts = 2; outcome = Journal.Ok_cell (payload 2) };
      Journal.close w;
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          check_bool "header round-trips" true (l.Journal.l_header = header);
          check_int "record count" 3 (List.length l.Journal.l_records);
          check_bool "not torn" false l.Journal.l_torn;
          check_int "valid bytes = file size" (String.length (read_file path))
            l.Journal.l_valid_bytes;
          (match l.Journal.l_records with
          | [ r0; r1; r2 ] ->
              check_int "cell ids" 0 r0.Journal.cell;
              check_int "attempts preserved" 3 r1.Journal.attempts;
              (match (r0.Journal.outcome, r1.Journal.outcome) with
              | Journal.Ok_cell p, Journal.Quarantined_cell reason ->
                  check_bool "payload bytes preserved" true (p = payload 0);
                  Alcotest.(check string)
                    "reason preserved" "Failure(\"boom\")" reason
              | _ -> Alcotest.fail "unexpected outcomes");
              (match r2.Journal.outcome with
              | Journal.Ok_cell p ->
                  let v : int * string = Marshal.from_string p 0 in
                  check_bool "payload unmarshals" true (v = (2, "2"))
              | _ -> Alcotest.fail "cell 2 must be ok")
          | _ -> Alcotest.fail "wrong record shape"))

let test_escaping_roundtrip () =
  (* reasons with quotes, backslashes, newlines and control bytes must
     survive the JSON encoding *)
  with_temp (fun path ->
      let nasty = "a\"b\\c\nd\te\r\x01f" in
      let w = Journal.create ~path { header with Journal.campaign = nasty } in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Quarantined_cell nasty };
      Journal.close w;
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l -> (
          Alcotest.(check string)
            "campaign escaped" nasty l.Journal.l_header.Journal.campaign;
          match (List.hd l.Journal.l_records).Journal.outcome with
          | Journal.Quarantined_cell r -> Alcotest.(check string) "reason" nasty r
          | _ -> Alcotest.fail "expected quarantine"))

(* -- Crash shapes ------------------------------------------------------------ *)

let test_torn_final_line () =
  with_temp (fun path ->
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 42 []) };
      Journal.close w;
      let intact = read_file path in
      (* a torn record: the crash cut the final line mid-JSON *)
      write_file path (intact ^ "{\"cell\":1,\"attempts\":1,\"status\":\"o");
      (match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          check_bool "torn flag" true l.Journal.l_torn;
          check_int "torn line dropped" 1 (List.length l.Journal.l_records);
          check_int "valid bytes exclude the torn tail"
            (String.length intact) l.Journal.l_valid_bytes);
      (* reopen truncates the torn tail; the journal is intact again *)
      let w = Journal.reopen ~path ~valid_bytes:(String.length intact) in
      Journal.append w
        { Journal.cell = 1; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 43 []) };
      Journal.close w;
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          check_bool "no longer torn" false l.Journal.l_torn;
          check_int "both records" 2 (List.length l.Journal.l_records))

let test_newlineless_final_record_is_torn () =
  (* the crash can cut the write exactly after the record's JSON, before
     its newline: the record parses, but keeping it would leave the
     durable prefix stopping mid-line — the next append would glue two
     records onto one line and poison the journal.  It must be dropped
     as torn, and the prefix must end at a line boundary. *)
  with_temp (fun path ->
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 42 []) };
      Journal.append w
        { Journal.cell = 1; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 43 []) };
      Journal.close w;
      let intact = read_file path in
      (* chop exactly the final newline *)
      write_file path (String.sub intact 0 (String.length intact - 1));
      let valid =
        match Journal.load ~path with
        | Error e -> Alcotest.fail (Journal.load_error_message e)
        | Ok l ->
            check_bool "newline-less final record counts as torn" true
              l.Journal.l_torn;
            check_int "the record is dropped" 1
              (List.length l.Journal.l_records);
            check_bool "durable prefix ends at a line boundary" true
              (intact.[l.Journal.l_valid_bytes - 1] = '\n');
            l.Journal.l_valid_bytes
      in
      (* in-place resume from that prefix yields a loadable journal *)
      let w = Journal.reopen ~path ~valid_bytes:valid in
      Journal.append w
        { Journal.cell = 1; attempts = 2;
          outcome = Journal.Ok_cell (Marshal.to_string 43 []) };
      Journal.close w;
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          check_bool "healed journal is not torn" false l.Journal.l_torn;
          check_int "both records present" 2 (List.length l.Journal.l_records))

let test_reopen_terminates_midline_prefix () =
  (* defensive path: [load] never reports a mid-line prefix, but a
     caller passing one to [reopen] must not be able to glue records —
     the missing newline is supplied before the first append *)
  with_temp (fun path ->
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 1 []) };
      Journal.close w;
      let chopped =
        let s = read_file path in
        String.sub s 0 (String.length s - 1)
      in
      write_file path chopped;
      let w = Journal.reopen ~path ~valid_bytes:(String.length chopped) in
      Journal.append w
        { Journal.cell = 1; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 2 []) };
      Journal.close w;
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          check_bool "not torn" false l.Journal.l_torn;
          check_int "no glued records" 2 (List.length l.Journal.l_records))

let test_interior_corruption_rejected () =
  with_temp (fun path ->
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 1 []) };
      Journal.append w
        { Journal.cell = 1; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 2 []) };
      Journal.close w;
      let lines = String.split_on_char '\n' (read_file path) in
      (* flip the middle record into garbage, keeping the final one *)
      let mangled =
        match lines with
        | h :: _ :: r2 :: rest ->
            String.concat "\n" (h :: "{garbage" :: r2 :: rest)
        | _ -> Alcotest.fail "unexpected layout"
      in
      write_file path mangled;
      (match Journal.load ~path with
      | Ok _ -> Alcotest.fail "interior corruption must be rejected"
      | Error (Journal.Corrupt _) -> ()
      | Error (Journal.No_header _) -> Alcotest.fail "header is intact");
      (* a tampered payload is interior corruption too: flip one hex
         nibble of a record's payload so the digest no longer matches *)
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 1 []) };
      Journal.append w
        { Journal.cell = 1; attempts = 1;
          outcome = Journal.Ok_cell (Marshal.to_string 2 []) };
      Journal.close w;
      let content = read_file path in
      let marker = "\"payload\":\"" in
      let rec find i =
        if i + String.length marker > String.length content then
          Alcotest.fail "no payload field found"
        else if String.sub content i (String.length marker) = marker then
          i + String.length marker
        else find (i + 1)
      in
      let pos = find 0 in
      let flipped = if content.[pos] = '0' then '1' else '0' in
      write_file path
        (String.mapi (fun i c -> if i = pos then flipped else c) content);
      (match Journal.load ~path with
      | Ok _ -> Alcotest.fail "digest mismatch must be rejected"
      | Error (Journal.Corrupt _) -> ()
      | Error (Journal.No_header _) -> Alcotest.fail "header is intact");
      (* a syntactically valid record whose payload is not hex must come
         back as Corrupt, not as an escaping Invalid_argument *)
      List.iter
        (fun bad_hex ->
          let w = Journal.create ~path header in
          Journal.close w;
          write_file path
            (read_file path
            ^ Printf.sprintf
                "{\"cell\":0,\"attempts\":1,\"status\":\"ok\",\"digest\":\
                 \"d41d8cd98f00b204e9800998ecf8427e\",\"payload\":\"%s\"}\n"
                bad_hex);
          match Journal.load ~path with
          | Ok _ ->
              Alcotest.failf "payload %S must be rejected as corrupt" bad_hex
          | Error (Journal.Corrupt _) -> ()
          | Error (Journal.No_header _) -> Alcotest.fail "header is intact")
        [ "zz"; "abc" ])

let test_headerless_is_fresh_start () =
  (* SIGKILL inside Journal.create can leave an empty or torn-header
     file; resuming from it must start fresh, not hard-error *)
  with_temp (fun path ->
      write_file path "";
      let setup =
        Campaign.prepare ~resume:path ~campaign:"test" ~fingerprint:[ "x" ]
          ~cells:2 ()
      in
      check_int "nothing resumed from an empty file" 0 setup.Campaign.resumed;
      setup.Campaign.close ();
      write_file path "{\"uhm_journal\":1,\"campaign\":\"te";
      let setup =
        Campaign.prepare ~resume:path ~campaign:"test" ~fingerprint:[ "x" ]
          ~cells:2 ()
      in
      check_int "nothing resumed from a torn header" 0 setup.Campaign.resumed;
      setup.Campaign.close ();
      (* a header whose JSON survived but whose newline did not is still
         torn-at-creation: keeping it would leave the prefix mid-line *)
      write_file path
        "{\"uhm_journal\":1,\"campaign\":\"test\",\"fingerprint\":\"f00d\",\"cells\":2}";
      (match Journal.load ~path with
      | Error (Journal.No_header _) -> ()
      | Error (Journal.Corrupt _) ->
          Alcotest.fail "newline-less header must be No_header, not Corrupt"
      | Ok _ -> Alcotest.fail "newline-less header must not load");
      let setup =
        Campaign.prepare ~resume:path ~campaign:"test" ~fingerprint:[ "x" ]
          ~cells:2 ()
      in
      check_int "nothing resumed from a newline-less header" 0
        setup.Campaign.resumed;
      setup.Campaign.close ())

(* -- Campaign.prepare safety ------------------------------------------------- *)

let run_grid ~domains ~journal ~resume jobs =
  Campaign.run ?journal ?resume ~campaign:"grid-test"
    ~fingerprint:[ "jobs"; string_of_int (List.length jobs) ]
    ~cells:(List.length jobs) (fun setup ->
      let slots =
        Sweep.map_supervised
          ~supervision:
            { Sweep.default_supervision with Sweep.sv_backoff = 1e-4 }
          ~domains ~cached:setup.Campaign.cached
          ?cell_hook:setup.Campaign.cell_hook
          (fun i ->
            if i = 2 then failwith "poisoned";
            (i, i * i))
          jobs
      in
      (slots, setup.Campaign.resumed))

let test_run_closes_journal_on_raise () =
  (* a grid that raises after its cells were journaled: Campaign.run
     re-raises, and the closed journal resumes every recorded cell *)
  with_temp (fun path ->
      (match
         Campaign.run ~journal:path ~campaign:"grid-test"
           ~fingerprint:[ "jobs"; "4" ] ~cells:4 (fun setup ->
             ignore
               (Sweep.map_supervised
                  ~supervision:
                    { Sweep.default_supervision with Sweep.sv_backoff = 1e-4 }
                  ~domains:1 ~cached:setup.Campaign.cached
                  ?cell_hook:setup.Campaign.cell_hook
                  (fun i ->
                    if i = 2 then failwith "poisoned";
                    (i, i * i))
                  [ 0; 1; 2; 3 ]);
             failwith "report failed")
       with
      | _ -> Alcotest.fail "the grid's exception must propagate"
      | exception Failure msg ->
          Alcotest.(check string) "grid exception" "report failed" msg);
      let _, resumed =
        run_grid ~domains:1 ~journal:None ~resume:(Some path) [ 0; 1; 2; 3 ]
      in
      check_int "the three completed cells resume" 3 resumed)

let test_fingerprint_mismatch () =
  with_temp (fun path ->
      let _ = run_grid ~domains:1 ~journal:(Some path) ~resume:None
          [ 0; 1; 2; 3 ]
      in
      (* same campaign name, different fingerprint (different cell count) *)
      match
        Campaign.prepare ~resume:path ~campaign:"grid-test"
          ~fingerprint:[ "jobs"; "5" ] ~cells:5 ()
      with
      | _ -> Alcotest.fail "expected Mismatch"
      | exception Campaign.Mismatch msg ->
          check_bool "mismatch message" true (String.length msg > 0))

let test_campaign_name_mismatch () =
  with_temp (fun path ->
      let w = Journal.create ~path header in
      Journal.close w;
      match
        Campaign.prepare ~resume:path ~campaign:"other" ~fingerprint:[ "x" ]
          ~cells:4 ()
      with
      | _ -> Alcotest.fail "expected Mismatch"
      | exception Campaign.Mismatch _ -> ())

let test_quarantined_cells_are_retried_on_resume () =
  with_temp (fun path ->
      let slots1, resumed1 =
        run_grid ~domains:1 ~journal:(Some path) ~resume:None [ 0; 1; 2; 3 ]
      in
      check_int "fresh run resumes nothing" 0 resumed1;
      check_bool "cell 2 quarantined" true
        (match List.nth slots1 2 with
        | Sweep.Quarantined _ -> true
        | Sweep.Completed _ -> false);
      let slots2, resumed2 =
        run_grid ~domains:1 ~journal:(Some path) ~resume:(Some path)
          [ 0; 1; 2; 3 ]
      in
      check_int "ok cells served from the journal" 3 resumed2;
      check_bool "results identical across resume" true (slots1 = slots2))

(* -- The headline property: kill anywhere, resume, identical report ---------- *)

let uninterrupted ~domains jobs =
  with_temp (fun path ->
      let slots, _ =
        run_grid ~domains ~journal:(Some path) ~resume:None jobs
      in
      (slots, read_file path))

let test_truncate_resume_identical () =
  let jobs = List.init 8 Fun.id in
  List.iter
    (fun domains ->
      let reference, full_journal = uninterrupted ~domains jobs in
      (* truncate at every byte boundary of the journal — a superset of
         "any record boundary" that also covers torn lines and a torn
         header — then resume and demand the identical report *)
      let stride = max 1 (String.length full_journal / 23) in
      let cut = ref 0 in
      while !cut <= String.length full_journal do
        with_temp (fun path ->
            write_file path (String.sub full_journal 0 !cut);
            let slots, _ =
              run_grid ~domains ~journal:(Some path) ~resume:(Some path) jobs
            in
            check_bool
              (Printf.sprintf "identical report after kill at byte %d (%d domains)"
                 !cut domains)
              true
              (slots = reference);
            (* and the healed journal now resumes completely *)
            let slots', resumed =
              run_grid ~domains ~journal:(Some path) ~resume:(Some path) jobs
            in
            check_int
              (Printf.sprintf "all ok cells resumed after healing at %d" !cut)
              7 resumed;
            check_bool "still identical" true (slots' = reference));
        cut := !cut + stride
      done)
    [ 1; 4 ]

let test_qcheck_truncate_resume =
  QCheck.Test.make ~count:30
    ~name:"random truncation point: resume reproduces the report"
    QCheck.(pair (int_bound 100_000) (bool))
    (fun (seed, four_domains) ->
      let domains = if four_domains then 4 else 1 in
      let jobs = List.init 6 Fun.id in
      let reference, full_journal = uninterrupted ~domains jobs in
      let cut = seed mod (String.length full_journal + 1) in
      with_temp (fun path ->
          write_file path (String.sub full_journal 0 cut);
          let slots, _ =
            run_grid ~domains ~journal:(Some path) ~resume:(Some path) jobs
          in
          slots = reference))

(* -- Journal compaction ------------------------------------------------------ *)

let test_compact_basic () =
  with_temp (fun path ->
      let payload i = Marshal.to_string (i, i * i) [] in
      let w = Journal.create ~path header in
      Journal.append w
        { Journal.cell = 0; attempts = 1; outcome = Journal.Ok_cell (payload 0) };
      Journal.append w
        { Journal.cell = 2; attempts = 1;
          outcome = Journal.Quarantined_cell "boom" };
      Journal.append w
        { Journal.cell = 1; attempts = 1; outcome = Journal.Ok_cell (payload 10) };
      (* supersede all three: cell 1 recomputed, cell 2 finally ok,
         cell 0 quarantined late *)
      Journal.append w
        { Journal.cell = 1; attempts = 2; outcome = Journal.Ok_cell (payload 1) };
      Journal.append w
        { Journal.cell = 2; attempts = 3; outcome = Journal.Ok_cell (payload 2) };
      Journal.append w
        { Journal.cell = 0; attempts = 2;
          outcome = Journal.Quarantined_cell "late" };
      Journal.close w;
      match Journal.compact ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok c -> (
          check_int "kept one record per cell" 3 c.Journal.c_kept;
          check_int "superseded records retired" 3 c.Journal.c_retired;
          check_int "valid bytes = file size" (String.length (read_file path))
            c.Journal.c_valid_bytes;
          check_bool "no temporary left behind" false
            (Sys.file_exists (path ^ ".compact"));
          match Journal.load ~path with
          | Error e -> Alcotest.fail (Journal.load_error_message e)
          | Ok l -> (
              check_bool "header preserved" true (l.Journal.l_header = header);
              check_bool "not torn" false l.Journal.l_torn;
              (match l.Journal.l_records with
              | [ r0; r1; r2 ] ->
                  check_int "cell order ascending (0)" 0 r0.Journal.cell;
                  check_int "cell order ascending (1)" 1 r1.Journal.cell;
                  check_int "cell order ascending (2)" 2 r2.Journal.cell;
                  check_bool "cell 0 keeps its last (quarantined) outcome" true
                    (r0.Journal.outcome = Journal.Quarantined_cell "late");
                  check_int "surviving record keeps its attempts" 2
                    r1.Journal.attempts;
                  check_bool "cell 1 keeps its last payload" true
                    (r1.Journal.outcome = Journal.Ok_cell (payload 1));
                  check_bool "cell 2 keeps its last (ok) outcome" true
                    (r2.Journal.outcome = Journal.Ok_cell (payload 2))
              | _ -> Alcotest.fail "wrong compacted record shape");
              (* idempotent: a second pass retires nothing *)
              match Journal.compact ~path with
              | Error e -> Alcotest.fail (Journal.load_error_message e)
              | Ok c2 ->
                  check_int "second pass keeps" 3 c2.Journal.c_kept;
                  check_int "second pass retires nothing" 0
                    c2.Journal.c_retired)))

let test_compact_resume_identical () =
  (* the resume-visible state (payloads, attempts, quarantines) must be
     unchanged by compaction: a resumed run reproduces the report *)
  let jobs = [ 0; 1; 2; 3 ] in
  with_temp (fun path ->
      let reference, _ =
        run_grid ~domains:1 ~journal:(Some path) ~resume:None jobs
      in
      (* in-place resume re-records the poisoned cell's quarantine,
         leaving one superseded line *)
      let _ = run_grid ~domains:1 ~journal:(Some path) ~resume:(Some path) jobs in
      let records () =
        match Journal.load ~path with
        | Ok l -> List.length l.Journal.l_records
        | Error e -> Alcotest.fail (Journal.load_error_message e)
      in
      check_int "superseded record accumulated" 5 (records ());
      match Journal.compact ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok c ->
          check_int "one superseded record retired" 1 c.Journal.c_retired;
          check_int "one record per recorded cell" 4 (records ());
          let slots, resumed =
            run_grid ~domains:1 ~journal:(Some path) ~resume:(Some path) jobs
          in
          check_int "ok cells still served after compaction" 3 resumed;
          check_bool "identical report from the compacted journal" true
            (slots = reference))

let test_compact_kill_anywhere () =
  (* kill the campaign at any byte, compact whatever survived, resume:
     the report must still be identical to the uninterrupted run *)
  let jobs = List.init 6 Fun.id in
  let reference, journal_bytes =
    with_temp (fun path ->
        let reference, _ =
          run_grid ~domains:1 ~journal:(Some path) ~resume:None jobs
        in
        let _ =
          run_grid ~domains:1 ~journal:(Some path) ~resume:(Some path) jobs
        in
        (reference, read_file path))
  in
  let stride = max 1 (String.length journal_bytes / 17) in
  let cut = ref 0 in
  while !cut <= String.length journal_bytes do
    with_temp (fun path ->
        write_file path (String.sub journal_bytes 0 !cut);
        (* an unusable prefix (no durable header) skips compaction, as a
           resume would; a torn tail is dropped, as on any load *)
        (match Journal.compact ~path with
        | Ok _ | Error (Journal.No_header _) -> ()
        | Error (Journal.Corrupt msg) ->
            Alcotest.failf "unexpected corruption at byte %d: %s" !cut msg);
        let slots, _ =
          run_grid ~domains:1 ~journal:(Some path) ~resume:(Some path) jobs
        in
        check_bool
          (Printf.sprintf "identical report, compacted kill at byte %d" !cut)
          true (slots = reference));
    cut := !cut + stride
  done

let test_opportunistic_compaction_on_resume () =
  (* Campaign.prepare compacts an in-place resume once enough superseded
     records have piled up; the report is unchanged *)
  let jobs = [ 0; 1; 2; 3 ] in
  let run ?compact_threshold ~resume path =
    let setup =
      Campaign.prepare ~journal:path ?resume ?compact_threshold
        ~campaign:"grid-test"
        ~fingerprint:[ "jobs"; string_of_int (List.length jobs) ]
        ~cells:(List.length jobs) ()
    in
    let slots =
      Sweep.map_supervised
        ~supervision:{ Sweep.default_supervision with Sweep.sv_backoff = 1e-4 }
        ~domains:1 ~cached:setup.Campaign.cached
        ?cell_hook:setup.Campaign.cell_hook
        (fun i ->
          if i = 2 then failwith "poisoned";
          (i, i * i))
        jobs
    in
    setup.Campaign.close ();
    slots
  in
  with_temp (fun path ->
      let reference = run ~resume:None path in
      let second = run ~resume:(Some path) path in
      check_bool "plain resume reproduces" true (second = reference);
      (* two runs left one superseded record; threshold 1 makes the
         third resume compact before appending *)
      let third = run ~compact_threshold:1 ~resume:(Some path) path in
      check_bool "report identical across opportunistic compaction" true
        (third = reference);
      match Journal.load ~path with
      | Error e -> Alcotest.fail (Journal.load_error_message e)
      | Ok l ->
          (* 4 compacted records plus this run's fresh quarantine
             re-record; without compaction there would be 6 *)
          check_int "superseded records were dropped" 5
            (List.length l.Journal.l_records))

let suite =
  ( "campaign",
    [
      Alcotest.test_case "journal round-trip" `Quick test_roundtrip;
      Alcotest.test_case "JSON escaping round-trip" `Quick
        test_escaping_roundtrip;
      Alcotest.test_case "torn final line dropped and healed" `Quick
        test_torn_final_line;
      Alcotest.test_case "newline-less final record is torn" `Quick
        test_newlineless_final_record_is_torn;
      Alcotest.test_case "reopen terminates a mid-line prefix" `Quick
        test_reopen_terminates_midline_prefix;
      Alcotest.test_case "interior corruption rejected" `Quick
        test_interior_corruption_rejected;
      Alcotest.test_case "headerless journal is a fresh start" `Quick
        test_headerless_is_fresh_start;
      Alcotest.test_case "fingerprint mismatch refuses to mix" `Quick
        test_fingerprint_mismatch;
      Alcotest.test_case "campaign name mismatch refuses to mix" `Quick
        test_campaign_name_mismatch;
      Alcotest.test_case "quarantined cells are retried on resume" `Quick
        test_quarantined_cells_are_retried_on_resume;
      Alcotest.test_case "run closes the journal when the grid raises" `Quick
        test_run_closes_journal_on_raise;
      Alcotest.test_case "kill anywhere + resume = identical report" `Slow
        test_truncate_resume_identical;
      QCheck_alcotest.to_alcotest test_qcheck_truncate_resume;
      Alcotest.test_case "compaction keeps the last record per cell" `Quick
        test_compact_basic;
      Alcotest.test_case "compaction preserves resume state" `Quick
        test_compact_resume_identical;
      Alcotest.test_case "kill anywhere + compact + resume = identical" `Slow
        test_compact_kill_anywhere;
      Alcotest.test_case "opportunistic compaction on resume" `Quick
        test_opportunistic_compaction_on_resume;
    ] )
