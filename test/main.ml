(* Test runner: one alcotest binary aggregating every suite. *)

let () =
  Alcotest.run "webviews"
    [
      Test_value.suite;
      Test_relation.suite;
      Test_kernel_oracle.suite;
      Test_html.suite;
      Test_wrapper.suite;
      Test_schema.suite;
      Test_websim.suite;
      Test_nalg.suite;
      Test_typecheck.suite;
      Test_rewrite.suite;
      Test_planner.suite;
      Test_matview.suite;
      Test_sitegen.suite;
      Test_extensions.suite;
      Test_rule2.suite;
      Test_sql_extra.suite;
      Test_equivalence.suite;
      Test_contain.suite;
      Test_netsim.suite;
      Test_exec.suite;
      Test_views.suite;
      Test_server.suite;
      Test_churn.suite;
      Test_bindings.suite;
      Test_exec_trace.suite;
      Test_cli.suite;
    ]
