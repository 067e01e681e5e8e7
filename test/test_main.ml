(* Aggregates every module's alcotest suites into one runner. *)
let () =
  Alcotest.run "gsino"
    (List.concat
       [
         Test_util.suites;
         Test_geom.suites;
         Test_netlist.suites;
         Test_grid.suites;
         Test_steiner.suites;
         Test_circuit.suites;
         Test_sino.suites;
         Test_lsk.suites;
         Test_gsino.suites;
         Test_check.suites;
         Test_analyze.suites;
         Test_guard.suites;
         Test_extensions.suites;
         Test_refine.suites;
         Test_obs.suites;
         Test_diff.suites;
         Test_journal.suites;
         Test_fuzz.suites;
         Test_reportviz.suites;
         Test_exec.suites;
        Test_cache.suites;
         Test_serve.suites;
       ])
