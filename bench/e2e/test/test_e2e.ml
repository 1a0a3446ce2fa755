(* Tests of the end-to-end benchmark: percentile rule, span self time
   and trace coverage, the oracle against the system, a tiny run of
   every workload, and BENCHMARK.json against the metric tables. *)

open E2e

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_tail_rule () =
  Alcotest.(check (option (float 0.0))) "n=200 supports p95" (Some 0.95) (Pct.tail_quantile 200);
  Alcotest.(check (option (float 0.0))) "n=100 supports p90" (Some 0.9) (Pct.tail_quantile 100);
  Alcotest.(check (option (float 0.0))) "n=1000 supports p99" (Some 0.99) (Pct.tail_quantile 1000);
  Alcotest.(check (option (float 0.0))) "n=19 supports nothing" None (Pct.tail_quantile 19);
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  let p95 = Server.Sched.percentile 0.95 xs in
  Alcotest.(check int) "ten samples beyond p95 at n=200" 10
    (List.length (List.filter (fun x -> x > p95) xs))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Pct.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9)) "median of even sample" 2.5 (Pct.median [ 4.0; 1.0; 2.0; 3.0 ])

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

let test_speed_factor () =
  (* probes every 10 ns: n + 1 slow ones (2x nominal) up to t = 10n,
     then n + 1 at nominal speed *)
  let n = Speed.nearest and nominal = int_of_float Speed.nominal_ns in
  let probes = List.init ((2 * n) + 2) (fun i -> (i * 10, if i <= n then 2 * nominal else nominal)) in
  let factor t0 t1 = Speed.factor_of probes ~t0 ~t1 in
  Alcotest.(check (float 1e-9)) "slow period halves" 0.5 (factor 0 30);
  Alcotest.(check (float 1e-9)) "fast period stays" 1.0 (factor (10 * ((2 * n) - 2)) (10 * ((2 * n) + 1)));
  (* n slow probes before, n nominal after: the median is 1.5x nominal *)
  Alcotest.(check (float 1e-9)) "both sides count" (1.0 /. 1.5) (factor ((10 * n) + 5) ((10 * n) + 6));
  Alcotest.(check (float 1e-9)) "no probes, no scaling" 1.0 (Speed.factor_of [] ~t0:0 ~t1:10);
  let before = List.length !Speed.log in
  Speed.burst ();
  Alcotest.(check int) "a burst is enough for a factor" Speed.nearest (List.length !Speed.log - before)

(* ------------------------------------------------------------------ *)
(* Span self time                                                      *)
(* ------------------------------------------------------------------ *)

let span ?(parent = -1) start stop =
  { Trace.name = "s"; start; stop; parent; qid = -1; alloc = 0.0 }

let self_of spans i = fst (Trace.self_times (Array.of_list spans)).(i)

let test_self_nested () =
  (* a grandchild lies inside its parent and does not count twice *)
  let spans = [ span 0 100; span ~parent:0 10 40; span ~parent:1 15 25 ] in
  Alcotest.(check int) "root" 70 (self_of spans 0);
  Alcotest.(check int) "child" 20 (self_of spans 1);
  Alcotest.(check int) "leaf" 10 (self_of spans 2)

let test_self_adjacent () =
  let spans = [ span 0 100; span ~parent:0 10 30; span ~parent:0 30 50; span ~parent:0 50 60 ] in
  Alcotest.(check int) "adjacent children cover 50" 50 (self_of spans 0)

let test_self_overlapping () =
  (* overlapping children count their union once; a child running past
     its parent is clipped to the parent's interval *)
  let spans = [ span 0 100; span ~parent:0 70 90; span ~parent:0 80 95; span ~parent:0 98 130 ] in
  Alcotest.(check int) "union of overlaps, clipped" 73 (self_of spans 0)

let test_recorded_spans () =
  let tr = Trace.create () in
  Trace.span tr "outer" (fun () ->
      Trace.span tr "a" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)));
      Trace.span tr "b" (fun () -> ()));
  (try Trace.span tr "fails" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Trace.spans tr in
  Alcotest.(check (list string)) "names" [ "outer"; "a"; "b"; "fails" ]
    (Array.to_list (Array.map (fun s -> s.Trace.name) spans));
  Alcotest.(check (list int)) "parents" [ -1; 0; 0; -1 ]
    (Array.to_list (Array.map (fun s -> s.Trace.parent) spans));
  let total_self = Array.fold_left (fun acc (s, _) -> acc + s) 0 (Trace.self_times spans) in
  let roots = spans.(0).Trace.stop - spans.(0).Trace.start + (spans.(3).Trace.stop - spans.(3).Trace.start) in
  Alcotest.(check int) "self times sum to root durations" roots total_self

let test_coverage () =
  (* a query of 100 ns whose layer spans account for [covered] ns; the
     rest is the benchmark's own glue *)
  let query covered =
    [|
      { (span 0 100) with Trace.name = "bench.query" };
      { (span ~parent:0 0 covered) with Trace.name = "planner.enumerate" };
    |]
  in
  let check covered =
    Workloads.coverage_problem (Workloads.coverage (query covered) ~traced_ns:100) = None
  in
  Alcotest.(check (float 1e-9)) "glue is not a layer" 0.8 (Workloads.coverage (query 80) ~traced_ns:100);
  Alcotest.(check bool) "untraced glue fails the check" false (check 80);
  Alcotest.(check bool) "layers covering 97% pass" true (check 97)

(* ------------------------------------------------------------------ *)
(* Oracle against the system                                           *)
(* ------------------------------------------------------------------ *)

let system_rows ?bindings schema stats registry site sql =
  let outcome = Webviews.Planner.plan_sql ?bindings schema stats registry sql in
  let source = Webviews.Eval.live_source schema (Websim.Http.connect site) in
  let rel = Webviews.Eval.eval schema source outcome.Webviews.Planner.best.Webviews.Planner.expr in
  Oracle.rows (Webviews.Planner.rename_output outcome rel)

let check_case ?bindings schema stats registry site (c : Oracle.case) =
  let rows = system_rows ?bindings schema stats registry site c.Oracle.sql in
  Alcotest.(check bool) (c.Oracle.family ^ " nonempty") true (c.Oracle.expected <> []);
  Alcotest.(check (list (list string))) c.Oracle.family c.Oracle.expected rows;
  Alcotest.(check bool) (c.Oracle.family ^ " digest") true
    (Oracle.digest_rows rows = Oracle.digest_rows c.Oracle.expected)

let test_oracle_university () =
  let u = Sitegen.University.build () in
  let schema = Sitegen.University.schema in
  let site = Sitegen.University.site u in
  let stats = Webviews.Stats.of_instance (Websim.Crawler.crawl schema (Websim.Http.connect site)) in
  let t = Oracle.university u in
  Alcotest.(check (list string)) "standard templates are the server's"
    Server.Workload.university_templates
    (List.map (fun (c : Oracle.case) -> c.Oracle.sql) (Oracle.standard t));
  List.iter (check_case schema stats Sitegen.University.view site) (Oracle.university_families t);
  let rng = Random.State.make [| 7 |] in
  let families = List.init 10 (fun i -> (Oracle.join_query t rng i).Oracle.family) in
  Alcotest.(check (list string)) "join families in order" Oracle.join_cycle families

let test_oracle_formsite () =
  let fs = Sitegen.Formsite.build () in
  let schema = Sitegen.Formsite.schema in
  let bindings = Bindings.planner_hook Sitegen.Formsite.binding_config schema in
  Alcotest.(check (list string)) "templates are the server's" Server.Workload.formsite_templates
    (List.map (fun (c : Oracle.case) -> c.Oracle.sql) (Oracle.form_standard fs));
  List.iter
    (fun dept ->
      List.iteri
        (fun shape _ ->
          check_case ~bindings schema (Sitegen.Formsite.stats fs) Sitegen.Formsite.view
            (Sitegen.Formsite.site fs) (Oracle.form_query fs shape dept))
        Oracle.form_families)
    (Sitegen.Formsite.depts fs)

let test_oracle_rejects () =
  let fs = Sitegen.Formsite.build () in
  let c = Oracle.form_query fs 0 "cs" in
  let missing = List.tl c.Oracle.expected and extra = [ "x"; "y" ] :: c.Oracle.expected in
  Alcotest.(check bool) "a missing row fails" false (Oracle.matches c missing);
  Alcotest.(check bool) "an extra row fails" false (Oracle.matches c (List.sort compare extra));
  Alcotest.(check bool) "a missing row is within" true (Oracle.within c missing);
  Alcotest.(check bool) "an extra row is not within" false (Oracle.within c (List.sort compare extra));
  Alcotest.(check bool) "a duplicate is not within" false
    (Oracle.within c (List.sort compare (List.hd c.Oracle.expected :: c.Oracle.expected)))

(* ------------------------------------------------------------------ *)
(* Tiny runs of every workload                                         *)
(* ------------------------------------------------------------------ *)

let tiny_run (w : Workloads.workload) traced =
  let name = w.Workloads.name in
  let o = w.Workloads.run { Workloads.seed = 7; seconds = 0.0; traced; size = Workloads.Tiny } in
  Alcotest.(check (list string)) (name ^ " problems") [] o.Workloads.problems;
  Alcotest.(check int) (name ^ " failed") 0 o.Workloads.failed;
  Alcotest.(check bool) (name ^ " attempted") true (o.Workloads.attempted > 0);
  let lines, unknown = Report.assemble ~traced o.Workloads.values in
  Alcotest.(check (list string)) (name ^ " unknown metrics") [] unknown;
  let table =
    if traced then List.map (fun (n, u, _) -> (n, u)) Report.per_layer
    else List.map (fun (s : Report.spec) -> (s.Report.name, s.Report.unit_)) Report.end_to_end
  in
  List.iter
    (fun (metric, unit_) ->
      let printed =
        List.find_map
          (fun l ->
            match Report.parse_metric_line (Report.metric_line l) with
            | Some (m, _, _, u, Some _) when m = metric -> Some u
            | _ -> None)
          lines
      in
      Alcotest.(check (option string)) (name ^ " prints " ^ metric) (Some unit_) printed)
    table;
  if traced then
    Alcotest.(check bool) (name ^ " trace file") true
      (Sys.file_exists (Filename.concat Workloads.trace_dir ("trace-" ^ name ^ ".jsonl")))

let tiny_cases =
  List.concat_map
    (fun (w : Workloads.workload) ->
      [
        Alcotest.test_case (w.Workloads.name ^ " untraced") `Quick (fun () -> tiny_run w false);
        Alcotest.test_case (w.Workloads.name ^ " traced") `Quick (fun () -> tiny_run w true);
      ])
    Workloads.all

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json is the manifest" (Report.manifest Workloads.all)
    (String.concat "" (List.map (fun l -> l ^ "\n") (Compare.read_lines "../../../BENCHMARK.json")))

let () =
  Alcotest.run "webbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
        ] );
      ("speed", [ Alcotest.test_case "factor from nearest probes" `Quick test_speed_factor ]);
      ( "spans",
        [
          Alcotest.test_case "nested" `Quick test_self_nested;
          Alcotest.test_case "adjacent" `Quick test_self_adjacent;
          Alcotest.test_case "overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "recorded" `Quick test_recorded_spans;
          Alcotest.test_case "coverage leaves out glue" `Quick test_coverage;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "university families" `Quick test_oracle_university;
          Alcotest.test_case "formsite families" `Quick test_oracle_formsite;
          Alcotest.test_case "rejects wrong answers" `Quick test_oracle_rejects;
        ] );
      ("tiny runs", tiny_cases);
      ("benchmark.json", [ Alcotest.test_case "matches the manifest" `Quick test_benchmark_json ]);
    ]
