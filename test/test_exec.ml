(* The physical plan layer's master invariants, checked differentially
   against the legacy relation-at-a-time evaluator (kept in Eval only
   as this oracle): the streaming executor computes exactly the same relation
   on every planner candidate over every generated site, and on a
   perfect network it issues exactly the same distinct page accesses —
   the paper's cost ledger is untouched by the pipelined runtime. *)

open Webviews

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let uni = Sitegen.Sites.load University
let schema = uni.schema
let registry = uni.registry
let instance = lazy (Sitegen.Sites.crawl uni)
let stats = uni.stats

let bib = Sitegen.Sites.load Bibliography
let bib_instance = lazy (Sitegen.Sites.crawl bib)
let catalog_records = Sitegen.Catalog.build ()
let catalog = Sitegen.Sites.of_catalog catalog_records
let catalog_instance = lazy (Sitegen.Sites.crawl catalog)
let catalog_stats = catalog.stats

(* Streaming and legacy runs of the same plan over fresh connections;
   on the perfect simulated network both must hit the same pages. *)
let net_profile run site schema e =
  let http = Websim.Http.connect site in
  let source = Eval.live_source schema http in
  let r = run source e in
  let s = Websim.Http.stats http in
  (r, s.Websim.Http.gets, s.Websim.Http.heads, s.Websim.Http.bytes)

let check_page_identity name site schema e =
  let r_stream, g1, h1, b1 = net_profile (Eval.eval schema) site schema e in
  let r_legacy, g2, h2, b2 = net_profile (Eval.eval_legacy schema) site schema e in
  Alcotest.(check bool) (name ^ ": same relation") true
    (Adm.Relation.equal r_stream r_legacy);
  Alcotest.(check (triple int int int)) (name ^ ": same GET/HEAD/byte counters")
    (g2, h2, b2) (g1, h1, b1)

(* --- random candidates over the university site -------------------- *)

let prop_exec_matches_legacy =
  QCheck.Test.make ~name:"streaming executor = legacy evaluator on all candidates"
    ~count:40 Test_equivalence.query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      let source = Eval.instance_source (Lazy.force instance) in
      List.for_all
        (fun (p : Planner.plan) ->
          Adm.Relation.equal
            (Eval.eval schema source p.Planner.expr)
            (Eval.eval_legacy schema source p.Planner.expr))
        outcome.Planner.candidates)

let prop_exec_same_pages =
  QCheck.Test.make ~name:"streaming follow hits the same pages as legacy"
    ~count:15 Test_equivalence.query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      let e = outcome.Planner.best.Planner.expr in
      let site = uni.site in
      let _, g1, h1, b1 = net_profile (Eval.eval schema) site schema e in
      let _, g2, h2, b2 = net_profile (Eval.eval_legacy schema) site schema e in
      (g1, h1, b1) = (g2, h2, b2))

let prop_lowered_plans_well_typed =
  QCheck.Test.make ~name:"every lowered candidate passes the static checker"
    ~count:40 Test_equivalence.query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      List.for_all
        (fun (p : Planner.plan) ->
          let plan = Physplan.lower schema p.Planner.expr in
          not
            (Diagnostic.has_errors
               (Typecheck.check_plan schema ~parent:p.Planner.expr plan)))
        outcome.Planner.candidates)

(* --- deterministic seeds across the three sites -------------------- *)

let seeds = [ 7; 21; 42 ]

let test_seeded_university_candidates () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for i = 1 to 5 do
        let sql = Test_equivalence.query_gen st in
        let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
        let source = Eval.instance_source (Lazy.force instance) in
        List.iteri
          (fun j (p : Planner.plan) ->
            check bool_t (Fmt.str "uni seed %d query %d candidate %d" seed i j) true
              (Adm.Relation.equal
                 (Eval.eval schema source p.Planner.expr)
                 (Eval.eval_legacy schema source p.Planner.expr)))
          outcome.Planner.candidates;
        check_page_identity
          (Fmt.str "uni seed %d query %d best" seed i)
          (uni.site)
          schema outcome.Planner.best.Planner.expr
      done)
    seeds

let test_seeded_catalog_candidates () =
  let products = Sitegen.Catalog.products catalog_records in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = List.nth products (Random.State.int st (List.length products)) in
      let queries =
        [
          Fmt.str "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = '%s'"
            p.Sitegen.Catalog.brand;
          Fmt.str "SELECT p.PName FROM Product p WHERE p.Category = '%s' AND p.Price < %d"
            p.Sitegen.Catalog.category
            (p.Sitegen.Catalog.price + 1);
        ]
      in
      List.iteri
        (fun i sql ->
          let outcome =
            Planner.plan_sql catalog.schema (Lazy.force catalog_stats)
              catalog.registry sql
          in
          let source = Eval.instance_source (Lazy.force catalog_instance) in
          List.iteri
            (fun j (pl : Planner.plan) ->
              check bool_t
                (Fmt.str "catalog seed %d query %d candidate %d" seed i j)
                true
                (Adm.Relation.equal
                   (Eval.eval catalog.schema source pl.Planner.expr)
                   (Eval.eval_legacy catalog.schema source pl.Planner.expr)))
            outcome.Planner.candidates;
          check_page_identity
            (Fmt.str "catalog seed %d query %d best" seed i)
            catalog.site catalog.schema
            outcome.Planner.best.Planner.expr)
        queries)
    seeds

let test_bibliography_paths () =
  let paths =
    [
      ("path1 all conferences", Sitegen.Bibliography.path1_all_conferences ());
      ("path2 db conferences", Sitegen.Bibliography.path2_db_conferences ());
      ("path3 direct link", Sitegen.Bibliography.path3_direct_link ());
      ("path4 via authors", Sitegen.Bibliography.path4_via_authors ());
    ]
  in
  let source = Eval.instance_source (Lazy.force bib_instance) in
  List.iter
    (fun (name, e) ->
      check bool_t (name ^ " relation") true
        (Adm.Relation.equal
           (Eval.eval bib.schema source e)
           (Eval.eval_legacy bib.schema source e));
      check_page_identity name bib.site bib.schema e)
    paths

(* --- pinned page-access counters (Example 7.2 literal plans) ------- *)

(* The literal figure-4 plans the benchmark measures
   ([Sitegen.University.fig4_pointer_join] and [_chase]). Pinning the
   absolute GET counts (not just stream = legacy) makes a silent
   regression of the incremental URL dedup — fetching a link twice, or
   prefetching pages the plan never consumes — fail loudly. *)
let test_pinned_literal_72_counters () =
  let site = uni.site in
  let gets_of e =
    let _, g, _, _ = net_profile (Eval.eval schema) site schema e in
    g
  in
  let join_gets = gets_of (Sitegen.University.fig4_pointer_join ()) in
  let chase_gets = gets_of (Sitegen.University.fig4_pointer_chase ()) in
  check int_t "pointer-join distinct GETs (default site)" 58 join_gets;
  check int_t "pointer-chase distinct GETs (default site)" 15 chase_gets;
  check_page_identity "literal pointer-join" site schema
    (Sitegen.University.fig4_pointer_join ());
  check_page_identity "literal pointer-chase" site schema
    (Sitegen.University.fig4_pointer_chase ())

(* --- early exit (LIMIT) ------------------------------------------- *)

let prof_names_plan () =
  Dsl.(
    start "ProfListPage" |> dive "ProfList" |> follow "ToProf" ~scheme:"ProfPage"
    |> keep [ "PName" ] |> finish)

(* A form-site call chain: one all-constant call, then one templated
   call per course of the department. *)
let math_course_instructors () =
  Nalg.project
    [ "CoursePage.CName"; "CoursePage.Instructor" ]
    (Nalg.call "CoursePage"
       ~args:[ ("course", Nalg.Arg_attr "DeptPage.Courses.CName") ]
       ~src:
         (Nalg.unnest
            (Nalg.call "DeptPage" ~args:[ ("dept", Nalg.Arg_const "math") ])
            "DeptPage.Courses"))

let test_limit_stops_fetching () =
  let formsite = Sitegen.Sites.of_formsite (Sitegen.Formsite.build ()) in
  List.iter
    (fun (name, (site : Sitegen.Sites.t), e) ->
      let gets limit =
        let http = Websim.Http.connect site.site in
        let source = Eval.live_source site.schema http in
        let r = Eval.eval ?limit site.schema source e in
        (Adm.Relation.cardinality r, (Websim.Http.stats http).Websim.Http.gets)
      in
      let _, full_gets = gets None in
      let one_rows, one_gets = gets (Some 1) in
      check int_t (name ^ ": one row under LIMIT 1") 1 one_rows;
      check bool_t (name ^ ": full run visits every page") true (full_gets > 10);
      (* the root page plus at most one prefetch window, not every page *)
      check bool_t
        (Fmt.str "%s: LIMIT 1 fetches strictly fewer pages (%d < %d)" name one_gets
           full_gets)
        true
        (one_gets < full_gets);
      check bool_t (name ^ ": LIMIT 1 stays within one prefetch window") true
        (one_gets <= 1 + Websim.Fetcher.default_config.Websim.Fetcher.window))
    [
      ("professor names", uni, prof_names_plan ());
      ("math course instructors", formsite, math_course_instructors ());
    ]

let test_limit_truncates_exact () =
  let source = Eval.instance_source (Lazy.force instance) in
  let e = prof_names_plan () in
  let full = Eval.eval schema source e in
  let limited = Eval.eval ~limit:3 schema source e in
  check int_t "exactly 3 rows" 3 (Adm.Relation.cardinality limited);
  let member row = List.mem row (Adm.Relation.rows full) in
  check bool_t "limited rows come from the full answer" true
    (List.for_all member (Adm.Relation.rows limited))

(* --- executor metrics --------------------------------------------- *)

let test_metrics_and_early_exit_flag () =
  let source = Eval.instance_source (Lazy.force instance) in
  let plan = Exec.lower schema source (prof_names_plan ()) in
  let full, m_full = Exec.run_metrics schema source plan in
  check bool_t "full pull exhausts the pipeline" true m_full.Exec.exhausted;
  check int_t "result_rows matches relation" (Adm.Relation.cardinality full)
    m_full.Exec.result_rows;
  check bool_t "streaming residency below materialized size" true
    (Exec.peak_resident_rows m_full <= Adm.Relation.cardinality full);
  let _, m_lim = Exec.run_metrics ~limit:1 schema source plan in
  check bool_t "LIMIT 1 stops before exhaustion" true (not m_lim.Exec.exhausted);
  check int_t "LIMIT 1 keeps one row" 1 m_lim.Exec.result_rows

(* --- resumable step API ------------------------------------------- *)

let test_step_api_resumable () =
  let source = Eval.instance_source (Lazy.force instance) in
  let plan = Exec.lower schema source (prof_names_plan ()) in
  let full, m_full = Exec.run_metrics schema source plan in
  (* stepping to completion = running to completion *)
  let r = Exec.start schema source plan in
  check bool_t "not finished before the first step" false (Exec.finished r);
  let steps = ref 0 in
  let rec drive () =
    match Exec.step r with
    | `Pulled n ->
      incr steps;
      check bool_t "batches are non-empty" true (n > 0);
      (* partial snapshots are prefixes of the final answer *)
      check bool_t "buffered rows grow monotonically" true
        (Exec.buffered_rows r
        = Adm.Relation.cardinality (Exec.snapshot r));
      drive ()
    | `Done -> ()
  in
  drive ();
  check bool_t "finished after Done" true (Exec.finished r);
  check bool_t "stepped result = run result" true
    (Adm.Relation.equal full (Exec.snapshot r));
  check bool_t "at least one pulling step happened" true (!steps >= 1);
  check bool_t "exhausted flag set" true (Exec.metrics_of r).Exec.exhausted;
  check int_t "result_rows as in the one-shot run" m_full.Exec.result_rows
    (Exec.metrics_of r).Exec.result_rows;
  (* `Done is sticky *)
  check bool_t "step after Done stays Done" true (Exec.step r = `Done);
  (* a limit stops the stepping early and truncates the snapshot *)
  let rl = Exec.start ~limit:2 schema source plan in
  let rec drive_l () = match Exec.step rl with `Pulled _ -> drive_l () | `Done -> () in
  drive_l ();
  check int_t "limit truncates the snapshot" 2
    (Adm.Relation.cardinality (Exec.snapshot rl));
  check bool_t "limit leaves the pipeline unexhausted" false
    (Exec.metrics_of rl).Exec.exhausted

(* --- build side ---------------------------------------------------- *)

(* A hash join builds its right input and probes it with the left, so
   a plan's join order is its build side. On the literal pointer-join
   plan and on the same plan with the join's operands swapped, the
   executor's state beyond the right input's rows is the same (the
   page tables and the projection's dedup set), and both orders
   return the same bag of rows. *)
let test_hash_join_builds_right () =
  let swap =
    Nalg.map (function
      | Nalg.Join (keys, e1, e2) -> Nalg.Join (List.map (fun (a, b) -> (b, a)) keys, e2, e1)
      | e -> e)
  in
  let run e =
    let source = Eval.instance_source (Lazy.force instance) in
    let plan = Exec.lower schema source e in
    let rel, m = Exec.run_metrics schema source plan in
    let input side =
      Physplan.fold
        (fun acc (o : Physplan.op) ->
          match o.Physplan.node with
          | Physplan.Hash_join { left; right; _ } ->
            acc + m.Exec.ops.((side left right).Physplan.id).Exec.rows_out
          | Physplan.Fetch _ | Physplan.View_scan _ | Physplan.Filter _
          | Physplan.Project _ | Physplan.Stream_unnest _ -> acc)
        0 plan
    in
    (rel, m.Exec.state_rows, input (fun l _ -> l), input (fun _ r -> r))
  in
  let e = Sitegen.University.fig4_pointer_join () in
  let rel, state, left, right = run e in
  let rel', state', left', right' = run (swap e) in
  check bool_t "the join's inputs differ in size" true (left <> right);
  check bool_t "swapping trades the inputs" true (left = right' && right = left');
  check int_t "state beyond the right input is the same in both orders"
    (state - right) (state' - right');
  let bag rel =
    List.sort Adm.Value.compare_tuple
      (List.map
         (List.sort (fun (a, _) (b, _) -> String.compare a b))
         (Adm.Relation.rows rel))
  in
  check bool_t "both orders return the same bag" true
    (List.equal Adm.Value.equal_tuple (bag rel) (bag rel'))

(* Lowering is total on well-typed expressions, so there is no
   fallback: an unnest of an attribute that is not a declared list is
   not computable, in the lowering, the evaluator and the elapsed-time
   estimate alike, exactly where the typechecker reports E0103
   (unknown attribute) or E0104 (not a list). *)
let test_bad_unnest_not_computable () =
  let profs =
    Nalg.follow
      (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
      "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"
  in
  let source = Eval.instance_source (Lazy.force instance) in
  let not_computable what f =
    match f () with
    | _ -> Alcotest.failf "%s did not raise Not_computable" what
    | exception Physplan.Not_computable _ -> ()
  in
  List.iter
    (fun (attr, code) ->
      let e = Nalg.unnest profs attr in
      not_computable ("lower " ^ attr) (fun () -> Physplan.lower schema e);
      not_computable ("eval " ^ attr) (fun () -> Eval.eval schema source e);
      check bool_t ("elapsed estimate of " ^ attr ^ " is infinite") true
        (Cost.elapsed_estimate schema (Lazy.force stats) e = infinity);
      check bool_t
        (Fmt.str "typecheck reports %s on %s" code attr)
        true
        (List.exists
           (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code code)
           (Typecheck.check schema e)))
    [ ("ProfPage.Nope", "E0103"); ("ProfPage.Rank", "E0104") ]

let suite =
  ( "exec",
    [
      QCheck_alcotest.to_alcotest prop_exec_matches_legacy;
      QCheck_alcotest.to_alcotest prop_exec_same_pages;
      QCheck_alcotest.to_alcotest prop_lowered_plans_well_typed;
      Alcotest.test_case "seeded university candidates (7/21/42)" `Slow
        test_seeded_university_candidates;
      Alcotest.test_case "seeded catalog candidates (7/21/42)" `Slow
        test_seeded_catalog_candidates;
      Alcotest.test_case "bibliography intro paths" `Slow test_bibliography_paths;
      Alcotest.test_case "pinned literal 7.2 page counters" `Quick
        test_pinned_literal_72_counters;
      Alcotest.test_case "LIMIT stops fetching early" `Quick test_limit_stops_fetching;
      Alcotest.test_case "LIMIT truncates exactly" `Quick test_limit_truncates_exact;
      Alcotest.test_case "resumable step API" `Quick test_step_api_resumable;
      Alcotest.test_case "metrics and early-exit flag" `Quick
        test_metrics_and_early_exit_flag;
      Alcotest.test_case "a hash join builds its right input" `Quick
        test_hash_join_builds_right;
      Alcotest.test_case "unnest of a non-list is not computable" `Quick
        test_bad_unnest_not_computable;
    ] )
