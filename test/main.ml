let () =
  Alcotest.run "uhm"
    [
      Test_bitstream.suite;
      Test_huffman.suite;
      Test_hlr.suite;
      Test_dir.suite;
      Test_compiler.suite;
      Test_ftn.suite;
      Test_encoding.suite;
      Test_machine.suite;
      Test_psder.suite;
      Test_core.suite;
      Test_sweep.suite;
      Test_campaign.suite;
      Test_golden.suite;
      Test_resume.suite;
      Test_sched.suite;
      Test_serve.suite;
      Test_chaos.suite;
      Test_fault.suite;
      Test_backend.suite;
      Test_derived.suite;
      Test_workload.suite;
      Test_report.suite;
      Test_perf.suite;
    ]
