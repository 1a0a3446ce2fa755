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
let bib_stats = bib.stats
let catalog_records = Sitegen.Catalog.build ()
let catalog = Sitegen.Sites.of_catalog catalog_records
let catalog_instance = lazy (Sitegen.Sites.crawl catalog)
let catalog_stats = catalog.stats

(* Run an expression through the physical layer: lower with cost
   annotations, execute with pull-based cursors. *)
let exec_eval schema stats source e =
  Exec.run schema source (Cost.lower ~window:source.Eval.window schema stats e)

(* Streaming and legacy runs of the same plan over fresh connections;
   on the perfect simulated network both must hit the same pages. *)
let net_profile run site schema e =
  let http = Websim.Http.connect site in
  let source = Eval.live_source schema http in
  let r = run source e in
  let s = Websim.Http.stats http in
  (r, s.Websim.Http.gets, s.Websim.Http.heads, s.Websim.Http.bytes)

let check_page_identity name site schema stats e =
  let r_stream, g1, h1, b1 = net_profile (exec_eval schema stats) site schema e in
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
            (exec_eval schema (Lazy.force stats) source p.Planner.expr)
            (Eval.eval_legacy schema source p.Planner.expr))
        outcome.Planner.candidates)

let prop_exec_same_pages =
  QCheck.Test.make ~name:"streaming follow hits the same pages as legacy"
    ~count:15 Test_equivalence.query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      let e = outcome.Planner.best.Planner.expr in
      let site = uni.site in
      let _, g1, h1, b1 = net_profile (exec_eval schema (Lazy.force stats)) site schema e in
      let _, g2, h2, b2 = net_profile (Eval.eval_legacy schema) site schema e in
      (g1, h1, b1) = (g2, h2, b2))

let prop_lowered_plans_well_typed =
  QCheck.Test.make ~name:"every lowered candidate passes the static checker"
    ~count:40 Test_equivalence.query_arb (fun sql ->
      let outcome = Planner.plan_sql schema (Lazy.force stats) registry sql in
      List.for_all
        (fun (p : Planner.plan) ->
          let plan = Cost.lower schema (Lazy.force stats) p.Planner.expr in
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
                 (exec_eval schema (Lazy.force stats) source p.Planner.expr)
                 (Eval.eval_legacy schema source p.Planner.expr)))
          outcome.Planner.candidates;
        check_page_identity
          (Fmt.str "uni seed %d query %d best" seed i)
          (uni.site)
          schema (Lazy.force stats) outcome.Planner.best.Planner.expr
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
                   (exec_eval catalog.schema (Lazy.force catalog_stats)
                      source pl.Planner.expr)
                   (Eval.eval_legacy catalog.schema source pl.Planner.expr)))
            outcome.Planner.candidates;
          check_page_identity
            (Fmt.str "catalog seed %d query %d best" seed i)
            catalog.site catalog.schema
            (Lazy.force catalog_stats) outcome.Planner.best.Planner.expr)
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
           (exec_eval bib.schema (Lazy.force bib_stats) source e)
           (Eval.eval_legacy bib.schema source e));
      check_page_identity name bib.site bib.schema (Lazy.force bib_stats) e)
    paths

(* --- pinned page-access counters (Example 7.2 literal plans) ------- *)

(* The same literal figure-4 plans the benchmark measures. Pinning the
   absolute GET counts (not just stream = legacy) makes a silent
   regression of the incremental URL dedup — fetching a link twice, or
   prefetching pages the plan never consumes — fail loudly. *)
let join_plan_72 () =
  let cs_prof_pointers =
    Nalg.unnest
      (Nalg.follow
         (Nalg.select
            [ Pred.eq_const "DeptListPage.DeptList.DName"
                (Adm.Value.text "Computer Science") ]
            (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
         "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
      "DeptPage.ProfList"
  in
  let grad_instructor_pointers =
    Nalg.select
      [ Pred.eq_const "CoursePage.Type" (Adm.Value.text "Graduate") ]
      (Nalg.follow
         (Nalg.unnest
            (Nalg.follow
               (Nalg.unnest (Nalg.entry "SessionListPage") "SessionListPage.SesList")
               "SessionListPage.SesList.ToSes" ~scheme:"SessionPage")
            "SessionPage.CourseList")
         "SessionPage.CourseList.ToCourse" ~scheme:"CoursePage")
  in
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.follow
       (Nalg.join
          [ ("DeptPage.ProfList.ToProf", "CoursePage.ToProf") ]
          cs_prof_pointers grad_instructor_pointers)
       "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")

let chase_plan_72 () =
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.select
       [ Pred.eq_const "CoursePage.Type" (Adm.Value.text "Graduate") ]
       (Nalg.follow
          (Nalg.unnest
             (Nalg.follow
                (Nalg.unnest
                   (Nalg.follow
                      (Nalg.select
                         [ Pred.eq_const "DeptListPage.DeptList.DName"
                             (Adm.Value.text "Computer Science") ]
                         (Nalg.unnest (Nalg.entry "DeptListPage")
                            "DeptListPage.DeptList"))
                      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
                   "DeptPage.ProfList")
                "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")
             "ProfPage.CourseList")
          "ProfPage.CourseList.ToCourse" ~scheme:"CoursePage"))

let test_pinned_literal_72_counters () =
  let site = uni.site in
  let gets_of e =
    let _, g, _, _ = net_profile (exec_eval schema (Lazy.force stats)) site schema e in
    g
  in
  let join_gets = gets_of (join_plan_72 ()) in
  let chase_gets = gets_of (chase_plan_72 ()) in
  check int_t "pointer-join distinct GETs (default site)" 58 join_gets;
  check int_t "pointer-chase distinct GETs (default site)" 15 chase_gets;
  check_page_identity "literal pointer-join" site schema (Lazy.force stats)
    (join_plan_72 ());
  check_page_identity "literal pointer-chase" site schema (Lazy.force stats)
    (chase_plan_72 ())

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
  let plan = Cost.lower ~window:source.Eval.window schema (Lazy.force stats)
      (prof_names_plan ())
  in
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
  let plan = Cost.lower ~window:source.Eval.window schema (Lazy.force stats)
      (prof_names_plan ())
  in
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

(* --- build-side selection ----------------------------------------- *)

let test_build_side_follows_estimates () =
  let plan = Cost.lower schema (Lazy.force stats) (join_plan_72 ()) in
  let joins =
    Physplan.fold
      (fun acc (o : Physplan.op) ->
        match o.Physplan.node with
        | Physplan.Hash_join { left; right; build_left; _ } ->
          (left.Physplan.est, right.Physplan.est, build_left) :: acc
        | Physplan.Fetch _ | Physplan.View_scan _ | Physplan.Filter _
        | Physplan.Project _ | Physplan.Stream_unnest _ -> acc)
      [] plan
  in
  check bool_t "the pointer-join plan has a hash join" true (joins <> []);
  List.iter
    (fun (l, r, build_left) ->
      match (l, r) with
      | Some le, Some re ->
        check bool_t "build side is the smaller estimated input"
          (le.Physplan.est_rows < re.Physplan.est_rows)
          build_left
      | _ -> Alcotest.fail "cost-lowered join children carry estimates")
    joins

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
      Alcotest.test_case "join build side follows estimates" `Quick
        test_build_side_follows_estimates;
      Alcotest.test_case "unnest of a non-list is not computable" `Quick
        test_bad_unnest_not_computable;
    ] )
